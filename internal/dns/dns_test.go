package dns

import (
	"testing"
	"time"

	"repro/internal/simrng"
)

var t0 = time.Date(2022, 6, 14, 0, 0, 0, 0, time.UTC)

func newTestAuthority() *Authority {
	a := NewAuthority()
	a.Add(Record{Name: "b.com", Type: TypeNS, Target: "ns1.b.com"})
	a.Add(Record{Name: "ns1.b.com", Type: TypeA, A: "20.0.0.1"})
	a.Add(Record{Name: "b.com", Type: TypeMX, MX: MX{Host: "mx2.b.com", Pref: 20}})
	a.Add(Record{Name: "b.com", Type: TypeMX, MX: MX{Host: "mx1.b.com", Pref: 10}})
	a.Add(Record{Name: "mx1.b.com", Type: TypeA, A: "20.0.0.10"})
	a.Add(Record{Name: "mx2.b.com", Type: TypeA, A: "20.0.0.20"})
	a.Add(Record{Name: "b.com", Type: TypeTXT, TXT: "v=spf1 mx -all"})
	return a
}

func TestQueryMXPreferenceOrder(t *testing.T) {
	a := newTestAuthority()
	ans := a.Query("b.com", TypeMX, t0)
	if ans.Code != NoError || len(ans.Records) != 2 {
		t.Fatalf("MX query: %+v", ans)
	}
	if ans.Records[0].MX.Host != "mx1.b.com" || ans.Records[1].MX.Host != "mx2.b.com" {
		t.Errorf("MX records not in preference order: %+v", ans.Records)
	}
}

func TestQueryCaseInsensitive(t *testing.T) {
	a := newTestAuthority()
	ans := a.Query("B.COM", TypeMX, t0)
	if ans.Code != NoError || len(ans.Records) != 2 {
		t.Errorf("case-insensitive query failed: %+v", ans)
	}
}

func TestNXDomainVsNodata(t *testing.T) {
	a := newTestAuthority()
	if ans := a.Query("never-registered.com", TypeA, t0); ans.Code != NXDomain {
		t.Errorf("unknown apex: code=%v want NXDOMAIN", ans.Code)
	}
	// b.com exists but has no A record at the apex: NODATA.
	if ans := a.Query("b.com", TypeA, t0); ans.Code != NoError || len(ans.Records) != 0 {
		t.Errorf("NODATA: %+v", ans)
	}
	// subdomain of an existing apex: NOERROR empty (exists at apex level).
	if ans := a.Query("sub.b.com", TypeA, t0); ans.Code != NoError {
		t.Errorf("subdomain of existing apex: code=%v", ans.Code)
	}
}

func TestApexMultiLabelSuffix(t *testing.T) {
	cases := map[string]string{
		"mail.tsinghua.edu.cn": "tsinghua.edu.cn",
		"www.example.co.uk":    "example.co.uk",
		"mx1.b.com":            "b.com",
		"b.com":                "b.com",
		"com":                  "com",
	}
	for in, want := range cases {
		if got := apex(in); got != want {
			t.Errorf("apex(%q)=%q want %q", in, got, want)
		}
	}
}

func TestWindowedRecords(t *testing.T) {
	a := NewAuthority()
	// Good SPF before and after; broken SPF during a 12-day episode.
	epStart := t0.AddDate(0, 0, 30)
	epEnd := epStart.AddDate(0, 0, 12)
	a.Add(Record{Name: "a.com", Type: TypeTXT, TXT: "v=spf1 ip4=good -all", Until: epStart})
	a.Add(Record{Name: "a.com", Type: TypeTXT, TXT: "v=spf1 broken", From: epStart, Until: epEnd})
	a.Add(Record{Name: "a.com", Type: TypeTXT, TXT: "v=spf1 ip4=good -all", From: epEnd})

	get := func(at time.Time) string {
		ans := a.Query("a.com", TypeTXT, at)
		if len(ans.Records) != 1 {
			t.Fatalf("at %v: %d records", at, len(ans.Records))
		}
		return ans.Records[0].TXT
	}
	if got := get(t0); got != "v=spf1 ip4=good -all" {
		t.Errorf("before episode: %q", got)
	}
	if got := get(epStart.Add(time.Hour)); got != "v=spf1 broken" {
		t.Errorf("during episode: %q", got)
	}
	if got := get(epEnd); got != "v=spf1 ip4=good -all" {
		t.Errorf("after episode (boundary is exclusive): %q", got)
	}
}

func TestOutage(t *testing.T) {
	a := newTestAuthority()
	from := t0.AddDate(0, 0, 10)
	until := from.Add(20 * time.Hour)
	a.AddOutage(Outage{Name: "b.com", Types: []RType{TypeMX}, Code: ServFail, From: from, Until: until})

	if ans := a.Query("b.com", TypeMX, from.Add(time.Hour)); ans.Code != ServFail {
		t.Errorf("during outage: code=%v want SERVFAIL", ans.Code)
	}
	// Other types unaffected.
	if ans := a.Query("b.com", TypeTXT, from.Add(time.Hour)); ans.Code != NoError {
		t.Errorf("TXT during MX outage: code=%v", ans.Code)
	}
	if ans := a.Query("b.com", TypeMX, until.Add(time.Hour)); ans.Code != NoError {
		t.Errorf("after outage: code=%v", ans.Code)
	}
}

func TestOutageAllTypes(t *testing.T) {
	a := newTestAuthority()
	a.AddOutage(Outage{Name: "b.com", Code: NXDomain, From: t0, Until: t0.Add(time.Hour)})
	if ans := a.Query("b.com", TypeTXT, t0.Add(time.Minute)); ans.Code != NXDomain {
		t.Errorf("all-type outage: code=%v", ans.Code)
	}
}

func TestResolverCaching(t *testing.T) {
	a := newTestAuthority()
	r := NewResolver(a, nil)
	ans1 := r.Lookup("b.com", TypeMX, t0)
	ans2 := r.Lookup("b.com", TypeMX, t0.Add(time.Minute))
	if ans1.Code != NoError || ans2.Code != NoError {
		t.Fatal("lookups failed")
	}
	hits, misses := r.hits, r.misses
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d want 1/1", hits, misses)
	}
	// After TTL expiry the cache must re-query.
	r.Lookup("b.com", TypeMX, t0.Add(10*time.Minute))
	misses = r.misses
	if misses != 2 {
		t.Errorf("expected cache expiry to force a miss, misses=%d", misses)
	}
}

func TestResolverCachesStaleDataAcrossChange(t *testing.T) {
	// The paper distinguishes genuine misconfiguration from stale caches;
	// the resolver must actually exhibit staleness within TTL.
	a := NewAuthority()
	cut := t0.Add(time.Minute)
	a.Add(Record{Name: "x.com", Type: TypeA, A: "1.1.1.1", TTL: time.Hour, Until: cut})
	a.Add(Record{Name: "x.com", Type: TypeA, A: "2.2.2.2", TTL: time.Hour, From: cut})
	r := NewResolver(a, nil)
	first, _ := r.ResolveA("x.com", t0)
	second, _ := r.ResolveA("x.com", cut.Add(time.Minute)) // within TTL: stale
	if first[0] != "1.1.1.1" || second[0] != "1.1.1.1" {
		t.Errorf("expected stale cached answer, got %v then %v", first, second)
	}
	r.Flush()
	third, _ := r.ResolveA("x.com", cut.Add(time.Minute))
	if third[0] != "2.2.2.2" {
		t.Errorf("after flush want fresh answer, got %v", third)
	}
}

func TestTransientFailureInjection(t *testing.T) {
	a := newTestAuthority()
	r := NewResolver(a, simrng.New(11))
	r.TransientFailProb = 0.5
	fails := 0
	for i := 0; i < 1000; i++ {
		r.Flush()
		if ans := r.Lookup("b.com", TypeMX, t0); ans.Code == ServFail {
			fails++
		}
	}
	if fails < 400 || fails > 600 {
		t.Errorf("injected failure count %d/1000, want ~500", fails)
	}
	// Transients must not be cached.
	transients := r.transients
	if transients != fails {
		t.Errorf("transient counter %d != observed %d", transients, fails)
	}
}

func TestResolveMXExplicitAndImplicit(t *testing.T) {
	a := newTestAuthority()
	a.Add(Record{Name: "implicit.com", Type: TypeA, A: "30.0.0.1"})
	r := NewResolver(a, nil)

	hosts, code := r.ResolveMX("b.com", t0)
	if code != NoError || len(hosts) != 2 || hosts[0] != "mx1.b.com" {
		t.Errorf("explicit MX: %v %v", hosts, code)
	}
	hosts, code = r.ResolveMX("implicit.com", t0)
	if code != NoError || len(hosts) != 1 || hosts[0] != "implicit.com" {
		t.Errorf("implicit MX fallback: %v %v", hosts, code)
	}
	_, code = r.ResolveMX("ghost.com", t0)
	if code != NXDomain {
		t.Errorf("missing domain: %v want NXDOMAIN", code)
	}
}

func TestResolveAAndTXT(t *testing.T) {
	a := newTestAuthority()
	r := NewResolver(a, nil)
	ips, code := r.ResolveA("mx1.b.com", t0)
	if code != NoError || len(ips) != 1 || ips[0] != "20.0.0.10" {
		t.Errorf("ResolveA: %v %v", ips, code)
	}
	txts, code := r.ResolveTXT("b.com", t0)
	if code != NoError || len(txts) != 1 || txts[0] != "v=spf1 mx -all" {
		t.Errorf("ResolveTXT: %v %v", txts, code)
	}
	// NODATA TXT is empty slice + NoError.
	txts, code = r.ResolveTXT("mx1.b.com", t0)
	if code != NoError || len(txts) != 0 {
		t.Errorf("NODATA TXT: %v %v", txts, code)
	}
}

func TestRTypeAndRCodeStrings(t *testing.T) {
	if TypeMX.String() != "MX" || TypeTXT.String() != "TXT" || RType(99).String() != "TYPE?" {
		t.Error("RType.String mismatch")
	}
	if NXDomain.String() != "NXDOMAIN" || Timeout.String() != "TIMEOUT" || RCode(99).String() != "RCODE?" {
		t.Error("RCode.String mismatch")
	}
}

func TestDefaultTTLApplied(t *testing.T) {
	a := NewAuthority()
	a.Add(Record{Name: "y.com", Type: TypeA, A: "1.2.3.4"})
	ans := a.Query("y.com", TypeA, t0)
	if ans.TTL != 5*time.Minute {
		t.Errorf("default TTL = %v", ans.TTL)
	}
}

func TestResolveAFollowsCNAME(t *testing.T) {
	a := NewAuthority()
	a.Add(Record{Name: "www.c.com", Type: TypeCNAME, Target: "real.c.com"})
	a.Add(Record{Name: "real.c.com", Type: TypeA, A: "40.0.0.1"})
	r := NewResolver(a, nil)
	ips, code := r.ResolveA("www.c.com", t0)
	if code != NoError || len(ips) != 1 || ips[0] != "40.0.0.1" {
		t.Errorf("CNAME chase: %v %v", ips, code)
	}
}

func TestResolveACNAMEChainAndLoop(t *testing.T) {
	a := NewAuthority()
	// Two-hop chain resolves.
	a.Add(Record{Name: "a1.x.com", Type: TypeCNAME, Target: "a2.x.com"})
	a.Add(Record{Name: "a2.x.com", Type: TypeCNAME, Target: "a3.x.com"})
	a.Add(Record{Name: "a3.x.com", Type: TypeA, A: "41.0.0.1"})
	// Loop must terminate with SERVFAIL, not hang.
	a.Add(Record{Name: "loop1.x.com", Type: TypeCNAME, Target: "loop2.x.com"})
	a.Add(Record{Name: "loop2.x.com", Type: TypeCNAME, Target: "loop1.x.com"})
	r := NewResolver(a, nil)
	if ips, code := r.ResolveA("a1.x.com", t0); code != NoError || ips[0] != "41.0.0.1" {
		t.Errorf("chain: %v %v", ips, code)
	}
	if _, code := r.ResolveA("loop1.x.com", t0); code != ServFail {
		t.Errorf("loop: %v want SERVFAIL", code)
	}
}

func TestResolveMXTargetBehindCNAME(t *testing.T) {
	// MX pointing at a CNAME is a misconfiguration MTAs tolerate by
	// chasing the chain; the substrate supports it so the world can
	// model it.
	a := NewAuthority()
	a.Add(Record{Name: "m.com", Type: TypeMX, MX: MX{Host: "alias.m.com", Pref: 10}})
	a.Add(Record{Name: "alias.m.com", Type: TypeCNAME, Target: "real.m.com"})
	a.Add(Record{Name: "real.m.com", Type: TypeA, A: "42.0.0.1"})
	r := NewResolver(a, nil)
	hosts, code := r.ResolveMX("m.com", t0)
	if code != NoError || hosts[0] != "alias.m.com" {
		t.Fatalf("MX: %v %v", hosts, code)
	}
	ips, code := r.ResolveA(hosts[0], t0)
	if code != NoError || ips[0] != "42.0.0.1" {
		t.Errorf("MX target behind CNAME: %v %v", ips, code)
	}
}
