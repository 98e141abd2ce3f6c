// Package registrar simulates the registration infrastructure the
// paper's squatting study probes externally: a domain registry with
// availability queries (the GoDaddy API substitute), WHOIS registrant
// history (the WhoisXML substitute), and per-provider free-mail username
// registries with the frozen/reserved/available distinction the paper
// discovered via web registration UIs ("non-existent user does not
// necessarily mean the username is available for registration").
package registrar

import (
	"strings"
	"sync"
	"time"
)

// Registration is one tenure of a domain by one registrant.
type Registration struct {
	Registrant string
	From       time.Time
	Until      time.Time // zero = still registered
	HasMX      bool      // MX configured + TCP/25 open after (re-)registration
}

func (r *Registration) activeAt(t time.Time) bool {
	if t.Before(r.From) {
		return false
	}
	return r.Until.IsZero() || t.Before(r.Until)
}

// Registry is the domain registry. It is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	domains map[string][]Registration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{domains: make(map[string][]Registration)}
}

// Register records a registration tenure for domain.
func (r *Registry) Register(domain, registrant string, from, until time.Time, hasMX bool) {
	domain = strings.ToLower(domain)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.domains[domain] = append(r.domains[domain], Registration{
		Registrant: registrant, From: from, Until: until, HasMX: hasMX,
	})
}

// Available reports whether domain can be purchased at time t — the
// GoDaddy availability check of Section 5.1.
func (r *Registry) Available(domain string, t time.Time) bool {
	domain = strings.ToLower(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.domains[domain] {
		if r.domains[domain][i].activeAt(t) {
			return false
		}
	}
	return true
}

// CurrentRegistration returns the active tenure at t, if any.
func (r *Registry) CurrentRegistration(domain string, t time.Time) (Registration, bool) {
	domain = strings.ToLower(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.domains[domain] {
		if r.domains[domain][i].activeAt(t) {
			return r.domains[domain][i], true
		}
	}
	return Registration{}, false
}

// WHOISHistory returns all tenures of domain in chronological order —
// the paper's registrant-change audit (56.19% unchanged, 26.67% changed).
func (r *Registry) WHOISHistory(domain string) []Registration {
	domain = strings.ToLower(domain)
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Registration, len(r.domains[domain]))
	copy(out, r.domains[domain])
	return out
}

// RegistrantChanged reports whether the registrant at t2 differs from
// the most recent registrant at-or-before t1. Either missing tenure
// yields ok=false.
func (r *Registry) RegistrantChanged(domain string, t1, t2 time.Time) (changed, ok bool) {
	prev, ok1 := r.CurrentRegistration(domain, t1)
	cur, ok2 := r.CurrentRegistration(domain, t2)
	if !ok1 || !ok2 {
		return false, false
	}
	return prev.Registrant != cur.Registrant, true
}

// UserState is the state of a username at a free-mail provider.
type UserState int

// Username states observed via registration-UI probing.
const (
	UserUnknown  UserState = iota // never registered: available
	UserActive                    // currently in use
	UserFrozen                    // deactivated but not released
	UserReserved                  // blocked from registration by policy
	UserRecycled                  // deleted and released for re-registration
)

// UsernameRegistry models one provider's account namespace and
// re-registration policy.
type UsernameRegistry struct {
	Provider string
	// RecyclesAccounts mirrors provider policy: the paper finds Yahoo
	// re-releases old usernames much more readily than others.
	RecyclesAccounts bool

	mu    sync.RWMutex
	users map[string]UserState
}

// NewUsernameRegistry creates a registry for provider.
func NewUsernameRegistry(provider string, recycles bool) *UsernameRegistry {
	return &UsernameRegistry{
		Provider:         provider,
		RecyclesAccounts: recycles,
		users:            make(map[string]UserState),
	}
}

// SetState records the state of a username.
func (u *UsernameRegistry) SetState(local string, s UserState) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.users[strings.ToLower(local)] = s
}

// State returns the username's state.
func (u *UsernameRegistry) State(local string) UserState {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.users[strings.ToLower(local)]
}

// Registrable reports what the web registration UI would say: the
// paper's key distinction is that "no such user" NDRs do NOT imply
// registrable — frozen and reserved names are refused by the UI.
func (u *UsernameRegistry) Registrable(local string) bool {
	switch u.State(local) {
	case UserUnknown:
		return true
	case UserRecycled:
		return u.RecyclesAccounts
	default:
		return false
	}
}
