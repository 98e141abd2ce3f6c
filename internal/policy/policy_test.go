package policy

import (
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/dns"
	"repro/internal/mail"
	"repro/internal/ndr"
	"repro/internal/simrng"
	"repro/internal/world"
)

var testAt = clock.StudyStart.AddDate(0, 0, 20).Add(12 * time.Hour)

// testState is a throwaway StageState over a clean resolver.
type testState struct {
	rng      *simrng.RNG
	resolver *dns.Resolver
	spf      *auth.SPFEvaluator
	dkim     *auth.DKIMVerifier
	dmarc    *auth.DMARCEvaluator
	counters map[uint64]int
	learned  map[uint64]bool
	reports  []string
}

func newTestState(w *world.World) *testState {
	res := dns.NewResolver(w.DNS, nil)
	return &testState{
		rng:      simrng.New(7),
		resolver: res,
		spf:      &auth.SPFEvaluator{Resolver: res},
		dkim:     &auth.DKIMVerifier{Resolver: res},
		dmarc:    &auth.DMARCEvaluator{Resolver: res},
		counters: make(map[uint64]int),
		learned:  make(map[uint64]bool),
	}
}

func (st *testState) RNG() *simrng.RNG            { return st.rng }
func (st *testState) Resolver() *dns.Resolver     { return st.resolver }
func (st *testState) SPF() *auth.SPFEvaluator     { return st.spf }
func (st *testState) DKIM() *auth.DKIMVerifier    { return st.dkim }
func (st *testState) DMARC() *auth.DMARCEvaluator { return st.dmarc }

func (st *testState) Bump(key uint64) int {
	st.counters[key]++
	return st.counters[key]
}
func (st *testState) Peek(key uint64) int { return st.counters[key] }
func (st *testState) LearnOnce(key uint64) bool {
	if st.learned[key] {
		return true
	}
	st.learned[key] = true
	return false
}
func (st *testState) ReportSpam(ip string, at time.Time) { st.reports = append(st.reports, ip) }

// cleanDomain finds a domain whose policy won't interfere with the
// focused request below.
func cleanDomain(t *testing.T, w *world.World) *world.ReceiverDomain {
	t.Helper()
	for _, d := range w.Domains {
		p := d.Policy
		if !p.AmbiguousNDR && !p.UsesDNSBL && !p.Greylisting && !p.EnforceAuth &&
			p.TLS != world.TLSMandatory && p.QuirkProb == 0 && len(d.UserList) > 0 {
			return d
		}
	}
	t.Skip("no clean domain in tiny world")
	return nil
}

func cleanRequest(w *world.World, d *world.ReceiverDomain, local string) *Request {
	proxy := w.Proxies[0]
	return &Request{
		From:      mail.Address{Local: "tester", Domain: "sender.example"},
		To:        mail.Address{Local: local, Domain: d.Name},
		MsgID:     "m1",
		ClientIP:  proxy.IP,
		Proxy:     proxy,
		At:        testAt,
		First:     true,
		RcptCount: 1,
		Tokens:    []string{"meeting", "agenda", "timesheet"},
	}
}

func TestCatalogPhaseMonotonic(t *testing.T) {
	stages := Stages()
	for i := 1; i < len(stages); i++ {
		if stages[i].Phase < stages[i-1].Phase {
			t.Errorf("stage %q (phase %v) follows %q (phase %v): catalog must be phase-monotonic",
				stages[i].Name, stages[i].Phase, stages[i-1].Name, stages[i-1].Phase)
		}
	}
}

func TestParseStageList(t *testing.T) {
	got, err := ParseStageList(" dnsbl, content ")
	if err != nil || len(got) != 2 || got[0] != "dnsbl" || got[1] != "content" {
		t.Errorf("ParseStageList: got %v, %v", got, err)
	}
	if got, err := ParseStageList(""); err != nil || got != nil {
		t.Errorf("empty list: got %v, %v", got, err)
	}
	if _, err := ParseStageList("dnsbl,bogus"); err == nil {
		t.Error("unknown stage name accepted")
	}
}

func TestChainFirstRejectionAndMetrics(t *testing.T) {
	w := world.New(world.TinyConfig())
	d := cleanDomain(t, w)
	env := NewEnv(w)
	m := NewMetrics()
	chain := NewChain(env, d, ChainOptions{Metrics: m})
	st := newTestState(w)

	// A known user passes the gauntlet.
	req := cleanRequest(w, d, d.UserList[0])
	if v := chain.Evaluate(st, req); v.Rejected() {
		t.Fatalf("clean request rejected: %v", v.Type)
	}
	// A ghost user is the first rejection (T8), counted by metrics.
	// A different proxy keeps the per-source rate window fresh.
	ghost := cleanRequest(w, d, "no-such-user-zz")
	ghost.Proxy = w.Proxies[1]
	ghost.ClientIP = ghost.Proxy.IP
	v := chain.Evaluate(st, ghost)
	if v.Type != ndr.T8NoSuchUser {
		t.Fatalf("ghost verdict %v, want T8", v.Type)
	}
	if got := m.Format(); got != "rcpt-exists=1" {
		t.Errorf("stage hits = %q, want rcpt-exists=1", got)
	}
}

func TestChainDisableAndForce(t *testing.T) {
	w := world.New(world.TinyConfig())
	d := cleanDomain(t, w)
	env := NewEnv(w)
	st := newTestState(w)

	// Disabling rcpt-exists lets a ghost through the rest of the chain.
	off := NewChain(env, d, ChainOptions{Disable: []string{"rcpt-exists"}})
	if v := off.Evaluate(st, cleanRequest(w, d, "no-such-user-zz")); v.Rejected() {
		t.Errorf("ghost rejected with rcpt-exists disabled: %v", v.Type)
	}
	// Forcing content rejects even ham. A fresh proxy keeps the
	// per-source rate window out of the way.
	forced := NewChain(env, d, ChainOptions{Force: []string{"content"}})
	req := cleanRequest(w, d, d.UserList[0])
	req.Proxy = w.Proxies[1]
	req.ClientIP = req.Proxy.IP
	if v := forced.Evaluate(st, req); v.Type != ndr.T13ContentSpam {
		t.Errorf("forced content verdict %v, want T13", v.Type)
	}
	// Unknown names error.
	c := NewChain(env, d, ChainOptions{})
	if err := c.Disable("bogus"); err == nil {
		t.Error("Disable accepted unknown stage")
	}
	if err := c.Force("bogus"); err == nil {
		t.Error("Force accepted unknown stage")
	}
}

// TestEvaluateMatchesPhaseWalk checks the core phase-monotonicity
// property: a linear Evaluate and a CONNECT→MAIL→RCPT→DATA phase walk
// reach the same first rejection. Two identically-seeded worlds keep
// the stateful stages (greylist, counters) independent.
func TestEvaluateMatchesPhaseWalk(t *testing.T) {
	w1 := world.New(world.TinyConfig())
	w2 := world.New(world.TinyConfig())
	env1, env2 := NewEnv(w1), NewEnv(w2)
	st1, st2 := newTestState(w1), newTestState(w2)

	phases := []Phase{PhaseConnect, PhaseMail, PhaseRcpt, PhaseData}
	checked := 0
	for i, d1 := range w1.Domains[:10] {
		d2 := w2.Domains[i]
		if d1.Name != d2.Name {
			t.Fatal("worlds diverge")
		}
		c1 := NewChain(env1, d1, ChainOptions{})
		c2 := NewChain(env2, d2, ChainOptions{})
		locals := append([]string{}, d1.UserList...)
		if len(locals) > 3 {
			locals = locals[:3]
		}
		locals = append(locals, "ghost-zz")
		for j, local := range locals {
			r1 := cleanRequest(w1, d1, local)
			r2 := cleanRequest(w2, d2, local)
			r1.Proxy = w1.Proxies[j%len(w1.Proxies)]
			r2.Proxy = w2.Proxies[j%len(w2.Proxies)]
			r1.ClientIP, r2.ClientIP = r1.Proxy.IP, r2.Proxy.IP

			linear := c1.Evaluate(st1, r1)
			walked := Pass()
			for _, p := range phases {
				if walked = c2.EvaluatePhase(p, st2, r2); walked.Rejected() {
					break
				}
			}
			if linear.Type != walked.Type || linear.Template != walked.Template {
				t.Errorf("%s/%s: linear %v/%d, phase walk %v/%d",
					d1.Name, local, linear.Type, linear.Template, walked.Type, walked.Template)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no requests checked")
	}
}

func TestResolveEnvelopeDeterministic(t *testing.T) {
	w := world.New(world.TinyConfig())
	d := cleanDomain(t, w)
	chain := NewChain(NewEnv(w), d, ChainOptions{})
	req := cleanRequest(w, d, "ghost-zz")
	v := Reject(ndr.T8NoSuchUser)
	first := chain.Resolve(v, req)
	for i := 0; i < 5; i++ {
		if got := chain.Resolve(v, req); got != first {
			t.Fatalf("Resolve not deterministic: %+v vs %+v", got, first)
		}
	}
	if ndr.Catalog[first.Index].Type != ndr.T8NoSuchUser {
		t.Errorf("resolved template %d has type %v", first.Index, ndr.Catalog[first.Index].Type)
	}
	if first.Temporary != first.Code.Temporary() {
		t.Error("Temporary flag disagrees with reply code class")
	}
}

func TestStageHitRateLimit(t *testing.T) {
	w := world.New(world.TinyConfig())
	d := cleanDomain(t, w)
	if d.Policy.PerProxyHourlyLimit <= 0 {
		t.Skip("domain has no per-source limit")
	}
	chain := NewChain(NewEnv(w), d, ChainOptions{})
	st := newTestState(w)
	var last Verdict
	for i := 0; i <= d.Policy.PerProxyHourlyLimit; i++ {
		last = chain.Evaluate(st, cleanRequest(w, d, d.UserList[0]))
	}
	if last.Type != ndr.T7TooFast {
		t.Errorf("over-limit verdict %v, want T7", last.Type)
	}
	// Retries (First=false) only re-test the window, they don't drain it.
	retry := cleanRequest(w, d, d.UserList[0])
	retry.First = false
	key := Key("hr", retry.SourceID(), d.Name, clock.Hour(retry.At))
	before := st.Peek(key)
	chain.Evaluate(st, retry)
	if st.Peek(key) != before {
		t.Error("retry consumed rate-limit quota")
	}
}

func TestMetricsSnapshotCoversCatalogInOrder(t *testing.T) {
	m := NewMetrics()
	m.bump("dnsbl")
	m.bump("dnsbl")
	m.bump("greylist")
	snap := m.Snapshot()
	names := StageNames()
	if len(snap) != len(names) {
		t.Fatalf("snapshot has %d entries, catalog %d", len(snap), len(names))
	}
	for i, h := range snap {
		if h.Stage != names[i] {
			t.Fatalf("snapshot[%d] = %q, want chain order %q", i, h.Stage, names[i])
		}
		want := uint64(0)
		switch h.Stage {
		case "dnsbl":
			want = 2
		case "greylist":
			want = 1
		}
		if h.Hits != want {
			t.Fatalf("stage %s hits = %d, want %d", h.Stage, h.Hits, want)
		}
		if h.Phase == "" || h.Type == "" {
			t.Fatalf("stage %s snapshot misses phase/type: %+v", h.Stage, h)
		}
	}
}
