package squat

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/dns"
	"repro/internal/ndr"
	"repro/internal/registrar"
)

func day(d int) time.Time { return clock.StudyStart.AddDate(0, 0, d).Add(10 * time.Hour) }

func rec(from, to string, at time.Time, results ...string) dataset.Record {
	r := dataset.Record{From: from, To: to, StartTime: at, EndTime: at.Add(time.Minute), EmailFlag: "Normal"}
	for range results {
		r.FromIP = append(r.FromIP, "5.0.0.1")
		r.ToIP = append(r.ToIP, "20.0.0.1")
		r.DeliveryLatency = append(r.DeliveryLatency, 5000)
	}
	r.DeliveryResult = results
	return r
}

func renderT(t ndr.Type, addr, domain string) string {
	idx := ndr.NonAmbiguousTemplatesFor(t)[0]
	return ndr.Catalog[idx].Render(ndr.Params{
		Addr: addr, Local: addr, Domain: domain, IP: "5.0.0.1",
		MX: "mx1." + domain, BL: "Spamhaus", Vendor: "v", Sec: "60", Size: "1",
	})
}

// scenario builds a corpus + environment with:
//   - dead-typo.com: never resolves, available at scan (vulnerable typo of dead-type.com? matched against rank top)
//   - expired.com: received mail until day 100, NXDOMAIN after, available
//   - taken.com: never resolves but re-registered before scan (not vulnerable)
//   - freemail.example ghosts: one frozen (non-registrable), one unknown
func scenario(t *testing.T) (*analysis.Analysis, Config) {
	t.Helper()
	auth := dns.NewAuthority()
	reg := registrar.NewRegistry()
	ureg := registrar.NewUsernameRegistry("freemail.example", false)

	var records []dataset.Record
	// Popular live domain so ranks exist; also the typo base.
	auth.Add(dns.Record{Name: "popular.com", Type: dns.TypeMX, MX: dns.MX{Host: "mx1.popular.com", Pref: 10}})
	auth.Add(dns.Record{Name: "mx1.popular.com", Type: dns.TypeA, A: "20.0.0.1"})
	reg.Register("popular.com", "org", day(0).AddDate(-5, 0, 0), time.Time{}, true)
	for i := 0; i < 200; i++ {
		records = append(records, rec("s@a.com", fmt.Sprintf("u%d@popular.com", i%20), day(i%400), "250 OK"))
	}

	// Typo domain of popular.com: "popula.com" (omission), never resolves.
	for i := 0; i < 30; i++ {
		records = append(records, rec(fmt.Sprintf("s%d@a.com", i%3), "bob@popula.com", day(i*10),
			renderT(ndr.T2ReceiverDNS, "bob@popula.com", "popula.com")))
	}

	// Expired mid-study: received until day 100, dead after.
	exp := day(100)
	reg.Register("expired.com", "origcorp", day(0).AddDate(-3, 0, 0), exp, true)
	for i := 0; i < 10; i++ {
		records = append(records, rec("s@a.com", "u@expired.com", day(i*9), "250 OK"))
	}
	for i := 0; i < 10; i++ {
		records = append(records, rec("s@a.com", "u@expired.com", day(110+i*10),
			renderT(ndr.T2ReceiverDNS, "u@expired.com", "expired.com")))
	}

	// Never-resolving but re-registered (with MX) before scan by a new
	// registrant: NOT available, so not vulnerable; audited as changed.
	reg.Register("taken.com", "oldowner", day(0).AddDate(-4, 0, 0), day(50), true)
	reg.Register("taken.com", "squatter", time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC), time.Time{}, true)
	for i := 0; i < 8; i++ {
		records = append(records, rec("s@a.com", "x@taken.com", day(60+i),
			renderT(ndr.T2ReceiverDNS, "x@taken.com", "taken.com")))
	}

	// Freemail ghosts: heavy T8 traffic.
	auth.Add(dns.Record{Name: "freemail.example", Type: dns.TypeMX, MX: dns.MX{Host: "mx1.freemail.example", Pref: 10}})
	auth.Add(dns.Record{Name: "mx1.freemail.example", Type: dns.TypeA, A: "20.0.0.9"})
	ureg.SetState("frozenuser", registrar.UserFrozen)
	// "openuser" stays unknown -> registrable.
	// "wasactive" worked early, then account deleted (recycled provider? no) — state frozen.
	for i := 0; i < 6; i++ {
		records = append(records, rec("s@a.com", "frozenuser@freemail.example", day(200+i),
			renderT(ndr.T8NoSuchUser, "frozenuser@freemail.example", "freemail.example")))
		records = append(records, rec("s2@a.com", "openuser@freemail.example", day(200+i),
			renderT(ndr.T8NoSuchUser, "openuser@freemail.example", "freemail.example")))
	}

	env := &analysis.Environment{
		Resolver: dns.NewResolver(auth, nil),
		Registry: reg,
		UserRegs: map[string]*registrar.UsernameRegistry{"freemail.example": ureg},
	}
	a := analysis.New(records, env)
	cfg := DefaultConfig()
	cfg.MinUsernameEmails = 2
	return a, cfg
}

func TestDomainFunnel(t *testing.T) {
	a, cfg := scenario(t)
	res := Scan(a, a.Detect(), cfg)

	wantVuln := map[string]bool{"popula.com": true, "expired.com": true}
	got := map[string]bool{}
	for _, f := range res.VulnerableDomains {
		got[f.Domain] = true
	}
	for d := range wantVuln {
		if !got[d] {
			t.Errorf("vulnerable domain %s missing (got %v)", d, got)
		}
	}
	if got["taken.com"] {
		t.Error("re-registered taken.com should not be vulnerable")
	}
	if got["popular.com"] {
		t.Error("live domain flagged vulnerable")
	}
}

func TestTypoAndResidualTrustClasses(t *testing.T) {
	a, cfg := scenario(t)
	res := Scan(a, a.Detect(), cfg)
	var typoF, expiredF *DomainFinding
	for i := range res.VulnerableDomains {
		switch res.VulnerableDomains[i].Domain {
		case "popula.com":
			typoF = &res.VulnerableDomains[i]
		case "expired.com":
			expiredF = &res.VulnerableDomains[i]
		}
	}
	if typoF == nil || !typoF.IsTypo {
		t.Errorf("popula.com should be a typo finding: %+v", typoF)
	}
	if typoF != nil && typoF.Senders != 3 {
		t.Errorf("popula.com senders = %d want 3", typoF.Senders)
	}
	if expiredF == nil || !expiredF.ReceivedHistorically {
		t.Errorf("expired.com should be residual-trust: %+v", expiredF)
	}
	if res.TypoDomains < 1 || res.HistoricallyRecv < 1 {
		t.Errorf("class counters: typo=%d recv=%d", res.TypoDomains, res.HistoricallyRecv)
	}
}

func TestReRegistrationAudit(t *testing.T) {
	a, cfg := scenario(t)
	// taken.com is not vulnerable so it is not audited; make the audit
	// meaningful by re-registering expired.com after scan.
	a.Env.Registry.Register("expired.com", "newowner", time.Date(2024, 1, 5, 0, 0, 0, 0, time.UTC), time.Time{}, true)
	res := Scan(a, a.Detect(), cfg)
	if res.ReRegistered != 1 || res.RegistrantChanged != 1 || res.RegistrantSame != 0 {
		t.Errorf("audit: rereg=%d changed=%d same=%d", res.ReRegistered, res.RegistrantChanged, res.RegistrantSame)
	}
	if res.ReRegisteredMX != 1 {
		t.Errorf("rereg with MX = %d", res.ReRegisteredMX)
	}
}

func TestUsernameFunnel(t *testing.T) {
	a, cfg := scenario(t)
	res := Scan(a, a.Detect(), cfg)
	if res.ProbedUsernames != 2 {
		t.Fatalf("probed = %d want 2", res.ProbedUsernames)
	}
	if res.RegistrableCount != 1 {
		t.Fatalf("registrable = %d want 1 (openuser only)", res.RegistrableCount)
	}
	if res.VulnerableUsernames[0].Address != "openuser@freemail.example" {
		t.Errorf("vulnerable username: %+v", res.VulnerableUsernames[0])
	}
	if res.UsernameSenders != 1 || res.UsernameEmails != 6 {
		t.Errorf("exposure: senders=%d emails=%d", res.UsernameSenders, res.UsernameEmails)
	}
}

func TestWeeklyTimeline(t *testing.T) {
	a, cfg := scenario(t)
	res := Scan(a, a.Detect(), cfg)
	totalEmails := 0
	for _, n := range res.WeeklyEmails {
		totalEmails += n
	}
	// 30 typo + 10 dead-expired failures + 10 pre-expiry successes to
	// expired.com + 6 openuser emails = 56.
	if totalEmails != 56 {
		t.Errorf("weekly email total = %d want 56", totalEmails)
	}
	peak := 0
	for _, n := range res.WeeklySenders {
		if n > peak {
			peak = n
		}
	}
	if peak == 0 {
		t.Error("no weekly sender exposure recorded")
	}
}

func TestScanWithoutEnvironment(t *testing.T) {
	records := []dataset.Record{rec("a@a.com", "b@b.com", day(0), "250 OK")}
	a := analysis.New(records, nil)
	res := Scan(a, a.Detect(), DefaultConfig())
	if res.VulnerableCount != 0 || res.ProbedUsernames != 0 {
		t.Errorf("env-less scan should be empty: %+v", res)
	}
}
