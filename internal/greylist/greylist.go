// Package greylist implements RFC-style greylisting (Harris 2003): a
// receiver temporarily rejects the first delivery attempt for an unseen
// (client IP, envelope sender, envelope recipient) tuple and accepts a
// retry of the same tuple after a minimum delay. The paper shows that
// Coremail's random-proxy retry strategy violates the tuple — every
// retry arrives from a different IP — which is exactly why 843K emails
// (T6) bounce against the 783 greylisting domains. The delivery engine
// reproduces that interaction mechanistically through this package.
package greylist

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
)

// Verdict is the outcome of a greylist check.
type Verdict int

// Verdicts.
const (
	// Defer: tuple unseen (or retried too early); reply 450 and record it.
	Defer Verdict = iota
	// Accept: tuple seen before and the minimum delay has passed.
	Accept
	// AcceptKnown: tuple already whitelisted by a previous accept.
	AcceptKnown
)

// Greylist holds tuple state for one receiver domain (or a shared pool;
// tuples embed the recipient so sharing is safe). The zero value is not
// usable; call New.
type Greylist struct {
	minDelay   time.Duration
	lifetime   time.Duration
	prefixBits int // 0 = exact IP; 24 = match client by /24, etc.

	mu      sync.Mutex
	pending map[uint64]time.Time // tuple -> first-seen
	known   map[uint64]time.Time // tuple -> whitelisted-at
}

// New creates a greylist that defers unseen tuples for minDelay and
// remembers accepted tuples for lifetime. Conventional values are 300 s
// and 30 days.
func New(minDelay, lifetime time.Duration) *Greylist {
	if minDelay <= 0 {
		minDelay = 300 * time.Second
	}
	if lifetime <= 0 {
		lifetime = 30 * 24 * time.Hour
	}
	return &Greylist{
		minDelay: minDelay,
		lifetime: lifetime,
		pending:  make(map[uint64]time.Time),
		known:    make(map[uint64]time.Time),
	}
}

// NewPrefix creates a greylist whose tuple matches the client by IPv4
// prefix rather than exact address. Many real deployments key on /24 so
// that retries from a neighboring MTA in the same farm pass — which
// also softens the random-proxy problem when proxies share a subnet.
func NewPrefix(minDelay, lifetime time.Duration, prefixBits int) *Greylist {
	g := New(minDelay, lifetime)
	if prefixBits < 0 {
		prefixBits = 0
	}
	if prefixBits > 32 {
		prefixBits = 32
	}
	g.prefixBits = prefixBits
	return g
}

// MinDelay returns the configured retry delay.
func (g *Greylist) MinDelay() time.Duration { return g.minDelay }

// clientKey reduces an IPv4 address to the configured prefix.
func (g *Greylist) clientKey(ip string) string {
	if g.prefixBits == 0 || g.prefixBits >= 32 {
		return ip
	}
	var a, b, c, d int
	if _, err := fmt.Sscanf(ip, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return ip
	}
	v := uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
	v &= ^uint32(0) << (32 - g.prefixBits)
	return fmt.Sprintf("%d.%d.%d.%d/%d", v>>24, v>>16&0xff, v>>8&0xff, v&0xff, g.prefixBits)
}

func tupleKey(ip, from, to string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(ip))
	h.Write([]byte{0})
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	return h.Sum64()
}

// Check evaluates a delivery attempt from client ip with the given
// envelope at time t and returns the verdict, updating state.
//
// Window boundaries are pinned half-open so every caller — the engine
// chain and the smtpbridge wire path share one Greylist per world —
// classifies an edge retry identically: a retry arriving exactly
// minDelay after first sight is accepted (the wait interval is
// [first, first+minDelay), retried-too-fast is strict <), and a
// whitelist entry is valid for [accepted, accepted+lifetime) — a hit
// exactly at lifetime has expired and re-enters greylisting.
func (g *Greylist) Check(ip, from, to string, t time.Time) Verdict {
	key := tupleKey(g.clientKey(ip), from, to)
	g.mu.Lock()
	defer g.mu.Unlock()

	if wl, ok := g.known[key]; ok {
		if t.Sub(wl) < g.lifetime {
			return AcceptKnown
		}
		delete(g.known, key)
	}
	first, ok := g.pending[key]
	if !ok {
		g.pending[key] = t
		return Defer
	}
	if t.Sub(first) < g.minDelay {
		return Defer // retried too fast; clock does not reset
	}
	delete(g.pending, key)
	g.known[key] = t
	return Accept
}

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Defer:
		return "defer"
	case Accept:
		return "accept"
	case AcceptKnown:
		return "accept-known"
	}
	return "?"
}
