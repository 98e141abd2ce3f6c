package greylist

import (
	"testing"
	"time"
)

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

func TestFirstAttemptDeferred(t *testing.T) {
	g := New(300*time.Second, 0)
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0); v != Defer {
		t.Errorf("first attempt: %v want Defer", v)
	}
}

func TestSameTupleRetryAfterDelayAccepted(t *testing.T) {
	g := New(300*time.Second, 0)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0)
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(6*time.Minute)); v != Accept {
		t.Errorf("retry after delay: %v want Accept", v)
	}
	// Subsequent deliveries hit the whitelist.
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(time.Hour)); v != AcceptKnown {
		t.Errorf("whitelisted tuple: %v want AcceptKnown", v)
	}
}

func TestTooFastRetryDeferred(t *testing.T) {
	g := New(300*time.Second, 0)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0)
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(time.Minute)); v != Defer {
		t.Errorf("fast retry: %v want Defer", v)
	}
	// The original first-seen clock keeps running: a retry 6 minutes
	// after the FIRST attempt passes.
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(6*time.Minute)); v != Accept {
		t.Errorf("retry after original window: %v want Accept", v)
	}
}

// TestRetryWindowBoundaryExact pins the half-open window edges: a
// retry exactly minDelay after first sight is accepted, one
// nanosecond earlier is deferred, and a whitelist hit exactly at
// lifetime has expired. Both the engine chain and the smtpbridge wire
// path consult this same state, so these edges are what keeps their
// classifications consistent (see differential_test.go).
func TestRetryWindowBoundaryExact(t *testing.T) {
	const delay = 300 * time.Second
	g := New(delay, 24*time.Hour)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0)
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(delay-time.Nanosecond)); v != Defer {
		t.Errorf("retry at minDelay-1ns: %v want Defer", v)
	}
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(delay)); v != Accept {
		t.Errorf("retry exactly at minDelay: %v want Accept", v)
	}

	// Whitelist lifetime is [accepted, accepted+lifetime): a hit 1ns
	// before expiry is known, a hit exactly at expiry re-enters
	// greylisting as a fresh defer.
	wl := t0.Add(delay)
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", wl.Add(24*time.Hour-time.Nanosecond)); v != AcceptKnown {
		t.Errorf("whitelist hit at lifetime-1ns: %v want AcceptKnown", v)
	}
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", wl.Add(24*time.Hour)); v != Defer {
		t.Errorf("whitelist hit exactly at lifetime: %v want Defer", v)
	}
}

func TestDifferentProxyIPIsNewTuple(t *testing.T) {
	// This is the Coremail failure mode from the paper: each retry comes
	// from a different proxy MTA, so the tuple never repeats and the
	// email keeps getting deferred.
	g := New(300*time.Second, 0)
	proxies := []string{"1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4"}
	at := t0
	for _, ip := range proxies {
		if v := g.Check(ip, "a@a.com", "b@b.com", at); v != Defer {
			t.Fatalf("proxy %s: %v want Defer (tuple includes IP)", ip, v)
		}
		at = at.Add(10 * time.Minute)
	}
}

func TestTupleComponentsMatter(t *testing.T) {
	g := New(300*time.Second, 0)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0)
	if v := g.Check("1.1.1.1", "other@a.com", "b@b.com", t0.Add(6*time.Minute)); v != Defer {
		t.Errorf("different sender should be new tuple: %v", v)
	}
	if v := g.Check("1.1.1.1", "a@a.com", "other@b.com", t0.Add(6*time.Minute)); v != Defer {
		t.Errorf("different recipient should be new tuple: %v", v)
	}
}

func TestWhitelistExpiry(t *testing.T) {
	g := New(300*time.Second, 24*time.Hour)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(6*time.Minute)) // Accept
	// Two days later the whitelist entry expired; back to defer.
	if v := g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(48*time.Hour)); v != Defer {
		t.Errorf("expired whitelist: %v want Defer", v)
	}
}

func TestStateSizes(t *testing.T) {
	g := New(300*time.Second, 0)
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0)
	g.Check("2.2.2.2", "a@a.com", "b@b.com", t0)
	if len(g.pending) != 2 || len(g.known) != 0 {
		t.Errorf("pending=%d known=%d", len(g.pending), len(g.known))
	}
	g.Check("1.1.1.1", "a@a.com", "b@b.com", t0.Add(6*time.Minute))
	if len(g.pending) != 1 || len(g.known) != 1 {
		t.Errorf("after accept: pending=%d known=%d", len(g.pending), len(g.known))
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := New(0, 0)
	if g.MinDelay() != 300*time.Second {
		t.Errorf("default MinDelay = %v", g.MinDelay())
	}
}

func TestPrefixMatching(t *testing.T) {
	g := NewPrefix(300*time.Second, 0, 24)
	g.Check("5.0.0.1", "a@a.com", "b@b.com", t0)
	// A different host in the same /24 satisfies the tuple.
	if v := g.Check("5.0.0.99", "a@a.com", "b@b.com", t0.Add(6*time.Minute)); v != Accept {
		t.Errorf("same /24 retry: %v want Accept", v)
	}
	// A host in another /24 is a fresh tuple.
	if v := g.Check("5.0.1.1", "a@a.com", "b@b.com", t0.Add(12*time.Minute)); v != Defer {
		t.Errorf("other /24: %v want Defer", v)
	}
}

func TestPrefixBoundsClamped(t *testing.T) {
	g := NewPrefix(0, 0, 40) // clamps to 32 = exact
	g.Check("1.1.1.1", "a@a", "b@b", t0)
	if v := g.Check("1.1.1.2", "a@a", "b@b", t0.Add(6*time.Minute)); v != Defer {
		t.Errorf("clamped exact matching: %v", v)
	}
	if NewPrefix(0, 0, -3).prefixBits != 0 {
		t.Error("negative prefix should clamp to 0")
	}
}

func TestPrefixNonIPClientFallsBack(t *testing.T) {
	g := NewPrefix(300*time.Second, 0, 24)
	g.Check("not-an-ip", "a@a", "b@b", t0)
	if v := g.Check("not-an-ip", "a@a", "b@b", t0.Add(6*time.Minute)); v != Accept {
		t.Errorf("literal client key retry: %v", v)
	}
}
