package dns

import (
	"sync"
	"time"

	"repro/internal/simrng"
)

// Resolver is a caching stub resolver over an Authority. It adds the two
// behaviours real MTAs experience that the Authority alone does not
// model: positive/negative caching with TTL expiry in virtual time, and
// transient resolution failures (SERVFAIL/timeout) injected with a small
// probability — the source of T1-style temporary DNS errors that clear
// on retry.
type Resolver struct {
	auth *Authority

	// TransientFailProb is the per-query probability of a transient
	// SERVFAIL when the query misses the cache. Zero disables injection.
	TransientFailProb float64

	mu    sync.Mutex
	rng   *simrng.RNG
	cache map[cacheKey]cacheEntry

	// counters for tests and reports
	hits, misses, transients int
}

type cacheKey struct {
	name string
	typ  RType
}

type cacheEntry struct {
	ans    Answer
	expiry time.Time
}

// NewResolver builds a resolver over auth. rng may be nil if
// TransientFailProb stays zero.
func NewResolver(auth *Authority, rng *simrng.RNG) *Resolver {
	return &Resolver{
		auth:  auth,
		rng:   rng,
		cache: make(map[cacheKey]cacheEntry),
	}
}

// Lookup resolves name/typ at virtual time t, consulting the cache
// first. Transient failures are never cached.
func (r *Resolver) Lookup(name string, typ RType, t time.Time) Answer {
	key := cacheKey{name, typ}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok && t.Before(e.expiry) {
		r.hits++
		r.mu.Unlock()
		return e.ans
	}
	r.misses++
	inject := r.TransientFailProb > 0 && r.rng != nil && r.rng.Bool(r.TransientFailProb)
	if inject {
		r.transients++
		r.mu.Unlock()
		return Answer{Code: ServFail}
	}
	r.mu.Unlock()

	ans := r.auth.Query(name, typ, t)
	ttl := ans.TTL
	if ttl <= 0 {
		ttl = 5 * time.Minute
	}
	r.mu.Lock()
	r.cache[key] = cacheEntry{ans: ans, expiry: t.Add(ttl)}
	r.mu.Unlock()
	return ans
}

// Flush drops all cached entries.
func (r *Resolver) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache = make(map[cacheKey]cacheEntry)
}

// ResolveMX returns the MX target hosts for domain in preference order
// at time t, falling back to the implicit-MX rule (the domain's own A
// record) when the domain has an address but no MX, per RFC 5321 §5.1.
func (r *Resolver) ResolveMX(domain string, t time.Time) ([]string, RCode) {
	ans := r.Lookup(domain, TypeMX, t)
	switch ans.Code {
	case NoError:
		if len(ans.Records) > 0 {
			hosts := make([]string, len(ans.Records))
			for i, rec := range ans.Records {
				hosts[i] = rec.MX.Host
			}
			return hosts, NoError
		}
		// NODATA: implicit MX if an A record exists.
		if a := r.Lookup(domain, TypeA, t); a.Code == NoError && len(a.Records) > 0 {
			return []string{domain}, NoError
		}
		return nil, NXDomain
	default:
		return nil, ans.Code
	}
}

// ResolveA returns the IPv4 addresses of host at time t, following up
// to maxCNAMEChain CNAME records (RFC 1034 resolution; chains beyond
// the limit are treated as broken and return SERVFAIL, like resolvers
// guarding against loops).
func (r *Resolver) ResolveA(host string, t time.Time) ([]string, RCode) {
	const maxCNAMEChain = 4
	for hop := 0; hop <= maxCNAMEChain; hop++ {
		ans := r.Lookup(host, TypeA, t)
		if ans.Code != NoError {
			return nil, ans.Code
		}
		ips := make([]string, 0, len(ans.Records))
		for _, rec := range ans.Records {
			ips = append(ips, rec.A)
		}
		if len(ips) > 0 {
			return ips, NoError
		}
		// No address: is there a CNAME to chase?
		cname := r.Lookup(host, TypeCNAME, t)
		if cname.Code != NoError || len(cname.Records) == 0 {
			return nil, NXDomain
		}
		host = cname.Records[0].Target
	}
	return nil, ServFail // chain too long / loop
}

// ResolveTXT returns the TXT strings at name at time t. A NODATA answer
// yields an empty slice with NoError, matching how SPF/DMARC evaluators
// treat "no record published".
func (r *Resolver) ResolveTXT(name string, t time.Time) ([]string, RCode) {
	ans := r.Lookup(name, TypeTXT, t)
	if ans.Code != NoError {
		return nil, ans.Code
	}
	txts := make([]string, 0, len(ans.Records))
	for _, rec := range ans.Records {
		txts = append(txts, rec.TXT)
	}
	return txts, NoError
}
