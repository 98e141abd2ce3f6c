package advise

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/dnsbl"
	"repro/internal/ndr"
	"repro/internal/simrng"
	"repro/internal/squat"
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

func tpl(t ndr.Type, addr string) string {
	idx := ndr.NonAmbiguousTemplatesFor(t)[0]
	return ndr.Catalog[idx].Render(ndr.Params{
		Addr: addr, Local: addr, Domain: "x.com", IP: "5.0.0.1",
		MX: "mx1.x.com", BL: "Spamhaus", Vendor: "v", Sec: "60", Size: "1",
	})
}

// corpus exhibits every misbehavior the advisory rules fire on.
func corpus() []dataset.Record {
	var out []dataset.Record
	for i := 0; i < 150; i++ {
		out = append(out, rec("a@s.com", fmt.Sprintf("u%d@x.com", i%20), day(i%300), "250 OK"))
	}
	// Greylist deferrals (>1% of bounces).
	for i := 0; i < 40; i++ {
		out = append(out, rec("a@s.com", "g@x.com", day(i*3), tpl(ndr.T6Greylisted, "g@x.com"), "250 OK"))
	}
	// Blocklist hits on Normal mail.
	for i := 0; i < 40; i++ {
		out = append(out, rec("a@s.com", "b@x.com", day(i*3), tpl(ndr.T5Blocklisted, "b@x.com"), "250 OK"))
	}
	// Full mailbox that never recovers.
	for i := 0; i < 25; i++ {
		out = append(out, rec("a@s.com", "full@x.com", day(i*10), tpl(ndr.T9MailboxFull, "full@x.com")))
	}
	// Auth failures for a sender domain that recovers after 60 days.
	for i := 0; i < 20; i++ {
		out = append(out, rec("m@broken.com", "u0@x.com", day(i*3), tpl(ndr.T3AuthFail, "u0@x.com")))
	}
	out = append(out, rec("m@broken.com", "u0@x.com", day(62), "250 OK"))
	// Inactive recipient.
	inactiveTpl := ""
	for _, i := range ndr.TemplatesFor(ndr.T8NoSuchUser) {
		if strings.Contains(ndr.Catalog[i].Text, "inactive") {
			inactiveTpl = ndr.Catalog[i].Render(ndr.Params{Addr: "gone@x.com", Vendor: "v"})
		}
	}
	for i := 0; i < 10; i++ {
		out = append(out, rec("a@s.com", "gone@x.com", day(100+i), inactiveTpl))
	}
	return out
}

func env() *analysis.Environment {
	bl := dnsbl.New(dnsbl.Config{ReportThreshold: 1, DelistMeanHours: 24 * 400}, simrng.New(1))
	bl.ReportSpam("9.9.9.9", clock.StudyStart) // listed essentially forever
	return &analysis.Environment{
		Blocklist: bl,
		ProxyIPs:  []string{"9.9.9.9", "8.8.8.8"},
	}
}

// run evaluates the rules over a with the detections and the Figure 7
// inferred from it, as a report does.
func run(a *analysis.Analysis, sq *squat.Result) []Advisory {
	det := a.Detect()
	return Run(a.BouncedPartials(), det, a.Durations(det), sq, DefaultConfig())
}

func TestRulesFire(t *testing.T) {
	a := analysis.New(corpus(), env())
	advs := run(a, nil)
	bySubject := map[string]Advisory{}
	for _, adv := range advs {
		bySubject[adv.Subject] = adv
	}
	for _, want := range []string{
		"NDR standardization", "greylisting compliance", "retry budget",
		"DNSBL collateral damage", "DKIM/SPF records", "full mailboxes",
		"inactive accounts", "proxy MTA 9.9.9.9",
	} {
		if _, ok := bySubject[want]; !ok {
			subjects := make([]string, 0, len(bySubject))
			for s := range bySubject {
				subjects = append(subjects, s)
			}
			t.Errorf("advisory %q missing (have %v)", want, subjects)
		}
	}
	// The healthy proxy must NOT be flagged.
	if _, ok := bySubject["proxy MTA 8.8.8.8"]; ok {
		t.Error("healthy proxy flagged")
	}
	// DKIM/SPF episode mean 62 days > 30 => critical.
	if adv := bySubject["DKIM/SPF records"]; adv.Severity != Critical {
		t.Errorf("auth advisory severity %v want Critical (%s)", adv.Severity, adv.Evidence)
	}
}

func TestAdvisoriesSortedBySeverity(t *testing.T) {
	a := analysis.New(corpus(), env())
	advs := run(a, nil)
	for i := 1; i < len(advs); i++ {
		if advs[i].Severity > advs[i-1].Severity {
			t.Fatalf("advisories not sorted by severity at %d", i)
		}
	}
}

func TestSquattingRules(t *testing.T) {
	sq := &squat.Result{
		VulnerableCount: 12, DomainEmails: 300, DomainSenders: 40,
		RegistrantChanged: 2,
		ProbedUsernames:   30, RegistrableCount: 11, PastWorking: 1,
		VulnerableDomains: []squat.DomainFinding{
			{Domain: "low.com", Emails: 5},
			{Domain: "high.com", Emails: 90},
			{Domain: "mid.com", Emails: 40},
		},
	}
	a := analysis.New(corpus(), nil)
	advs := run(a, sq)
	found := 0
	for _, adv := range advs {
		switch adv.Subject {
		case "vulnerable domains", "re-registered domains", "recyclable usernames":
			found++
			if adv.Severity == Info {
				t.Errorf("%s should not be Info", adv.Subject)
			}
		}
	}
	if found != 3 {
		t.Errorf("squatting advisories: %d want 3", found)
	}

	plan := ProtectivePlan(sq, 2)
	if len(plan) != 2 || plan[0].Domain != "high.com" || plan[1].Domain != "mid.com" {
		t.Errorf("protective plan: %+v", plan)
	}
}

func TestCleanCorpusFewAdvisories(t *testing.T) {
	var clean []dataset.Record
	for i := 0; i < 100; i++ {
		clean = append(clean, rec("a@s.com", fmt.Sprintf("u%d@x.com", i%10), day(i), "250 2.0.0 OK"))
	}
	// Pipeline needs some NDR text to train; give it a handful of
	// recoveries that do not trip any threshold.
	for i := 0; i < 4; i++ {
		clean = append(clean, rec("a@s.com", "t@x.com", day(i*50), tpl(ndr.T14Timeout, "t@x.com"), "250 OK"))
	}
	a := analysis.New(clean, nil)
	advs := run(a, nil)
	for _, adv := range advs {
		if adv.Severity == Critical {
			t.Errorf("clean corpus produced critical advisory: %+v", adv)
		}
	}
}

func TestStringers(t *testing.T) {
	if Community.String() == "?" || EmailUser.String() == "?" || Audience(99).String() != "?" {
		t.Error("Audience.String")
	}
	if Info.String() != "INFO" || Critical.String() != "CRIT" || Severity(9).String() != "?" {
		t.Error("Severity.String")
	}
}

func TestNotificationPlan(t *testing.T) {
	records := []dataset.Record{
		rec("s1@a.com", "u@dead.com", day(1), tpl(ndr.T2ReceiverDNS, "u@dead.com")),
		rec("s2@a.com", "u@dead.com", day(2), tpl(ndr.T2ReceiverDNS, "u@dead.com")),
		rec("s1@a.com", "u@dead.com", day(3), tpl(ndr.T2ReceiverDNS, "u@dead.com")), // duplicate sender
		rec("s3@a.com", "ghost@free.com", day(4), tpl(ndr.T8NoSuchUser, "ghost@free.com")),
		rec("s4@a.com", "other@ok.com", day(5), "250 OK"),
	}
	// Pipeline needs some corpus: append the shared one.
	records = append(records, corpus()...)
	a := analysis.New(records, nil)
	sq := &squat.Result{
		VulnerableDomains:   []squat.DomainFinding{{Domain: "dead.com"}},
		VulnerableUsernames: []squat.UsernameFinding{{Address: "ghost@free.com"}},
	}
	start := time.Date(2023, 10, 1, 9, 0, 0, 0, time.UTC)
	plan := NotificationPlan(a, sq, start)
	if len(plan) != 3 {
		t.Fatalf("plan size %d want 3 (one per distinct sender): %+v", len(plan), plan)
	}
	// One email per minute, one per user.
	seen := map[string]bool{}
	for i, n := range plan {
		if seen[n.To] {
			t.Errorf("duplicate notification to %s", n.To)
		}
		seen[n.To] = true
		if want := start.Add(time.Duration(i) * time.Minute); !n.SendAt.Equal(want) {
			t.Errorf("notification %d at %v want %v", i, n.SendAt, want)
		}
		if n.Subject == "" {
			t.Error("empty subject")
		}
	}
}
