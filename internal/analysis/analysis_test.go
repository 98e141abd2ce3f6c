package analysis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/typo"
)

var t0 = clock.StudyStart.Add(12 * time.Hour)

// rec builds a record with the given reply sequence.
func rec(from, to string, at time.Time, results ...string) dataset.Record {
	r := dataset.Record{
		From: from, To: to,
		StartTime: at, EndTime: at.Add(time.Minute),
		EmailFlag: "Normal",
	}
	for i, line := range results {
		r.DeliveryResult = append(r.DeliveryResult, line)
		r.FromIP = append(r.FromIP, fmt.Sprintf("5.0.0.%d", i+1))
		r.ToIP = append(r.ToIP, "20.0.0.1")
		r.DeliveryLatency = append(r.DeliveryLatency, 9000)
	}
	return r
}

// renderT renders the first template of a type with plausible params.
func renderT(t ndr.Type, addr string) string {
	idx := ndr.NonAmbiguousTemplatesFor(t)[0]
	local, domain := addr, "x.com"
	if i := strings.IndexByte(addr, '@'); i > 0 {
		local, domain = addr[:i], addr[i+1:]
	}
	return ndr.Catalog[idx].Render(ndr.Params{
		Addr: addr, Local: local, Domain: domain, IP: "5.0.0.1",
		MX: "mx1." + domain, BL: "Spamhaus", Vendor: "v1", Sec: "300", Size: "1000",
	})
}

// corpus returns a hand-built mixed corpus exercising the pipeline.
// Volumes are large enough for Drain+EBRC to train.
func testCorpus() []dataset.Record {
	var out []dataset.Record
	day := func(d int) time.Time { return clock.StudyStart.AddDate(0, 0, d).Add(10 * time.Hour) }
	// 300 successes.
	for i := 0; i < 300; i++ {
		out = append(out, rec("a@s.com", fmt.Sprintf("u%d@ok.com", i%40), day(i%300), "250 2.0.0 OK"))
	}
	// 60 soft bounces: greylist then success.
	for i := 0; i < 60; i++ {
		out = append(out, rec("a@s.com", fmt.Sprintf("u%d@gl.com", i%10), day(i%300),
			renderT(ndr.T6Greylisted, fmt.Sprintf("u%d@gl.com", i%10)), "250 OK"))
	}
	// 80 hard bounces: no such user.
	for i := 0; i < 80; i++ {
		addr := fmt.Sprintf("ghost%d@ok.com", i%20)
		out = append(out, rec("a@s.com", addr, day(i%300),
			renderT(ndr.T8NoSuchUser, addr), renderT(ndr.T8NoSuchUser, addr)))
	}
	// 50 blocklist bounces then success.
	for i := 0; i < 50; i++ {
		addr := fmt.Sprintf("u%d@bl.com", i%10)
		out = append(out, rec("a@s.com", addr, day(i%300),
			renderT(ndr.T5Blocklisted, addr), "250 OK"))
	}
	// 40 timeouts then success.
	for i := 0; i < 40; i++ {
		addr := fmt.Sprintf("u%d@slow.com", i%10)
		out = append(out, rec("a@s.com", addr, day(i%300),
			renderT(ndr.T14Timeout, addr), "250 OK"))
	}
	// 30 ambiguous-only bounces.
	ambIdx := ndr.AmbiguousTemplates()[0]
	for i := 0; i < 30; i++ {
		line := ndr.Catalog[ambIdx].Render(ndr.Params{Vendor: fmt.Sprintf("a%d", i), IP: "5.0.0.9"})
		out = append(out, rec("a@s.com", fmt.Sprintf("u%d@amb.com", i%5), day(i%300), line, line))
	}
	// 25 mailbox-full (quota) bounces.
	for i := 0; i < 25; i++ {
		addr := "fullbox@ok.com"
		out = append(out, rec("a@s.com", addr, day(i*3),
			renderT(ndr.T9MailboxFull, addr)))
	}
	// Recovery success for the full mailbox at day 80.
	out = append(out, rec("a@s.com", "fullbox@ok.com", day(80), "250 OK"))
	// 30 MX-error bounces for mx-broken.com (days 10-19) bounded by
	// successes before and after.
	out = append(out, rec("a@s.com", "u@mx-broken.com", day(9), "250 OK"))
	for i := 0; i < 30; i++ {
		out = append(out, rec("a@s.com", "u@mx-broken.com", day(10+i%10),
			renderT(ndr.T2ReceiverDNS, "u@mx-broken.com")))
	}
	out = append(out, rec("a@s.com", "u@mx-broken.com", day(20), "250 OK"))
	// Never-resolving typo domain of ok.com ("okk.com" = repetition).
	for i := 0; i < 12; i++ {
		out = append(out, rec("a@s.com", "bob@okk.com", day(30+i),
			renderT(ndr.T2ReceiverDNS, "bob@okk.com")))
	}
	// Username typo: sender mails alice.smith@ok.com successfully and
	// alice.smth@ok.com bounces T8.
	for i := 0; i < 8; i++ {
		out = append(out, rec("typist@s.com", "alice.smith@ok.com", day(40+i), "250 OK"))
		out = append(out, rec("typist@s.com", "alice.smth@ok.com", day(40+i),
			renderT(ndr.T8NoSuchUser, "alice.smth@ok.com")))
	}
	return out
}

func buildAnalysis(t *testing.T) *Analysis {
	t.Helper()
	return New(testCorpus(), nil)
}

func TestOverview(t *testing.T) {
	a := buildAnalysis(t)
	o := a.BouncedPartials().Overview()
	if o.Total != a.Records.Len() {
		t.Errorf("total %d", o.Total)
	}
	// Soft = greylist(60) + blocklist(50) + timeout(40) = 150.
	if o.SoftBounced != 150 {
		t.Errorf("soft = %d want 150", o.SoftBounced)
	}
	if o.AmbiguousBounced != 30 {
		t.Errorf("ambiguous = %d want 30", o.AmbiguousBounced)
	}
	if o.SoftAvgAttempts != 2 {
		t.Errorf("soft avg attempts %g want 2", o.SoftAvgAttempts)
	}
	if o.NonBounced+o.SoftBounced+o.HardBounced != o.Total {
		t.Error("degrees don't partition")
	}
}

func TestClassificationTypes(t *testing.T) {
	a := buildAnalysis(t)
	dist := a.BouncedPartials().TypeDistribution()
	if dist[ndr.T6Greylisted] != 60 {
		t.Errorf("T6 = %d want 60", dist[ndr.T6Greylisted])
	}
	if dist[ndr.T8NoSuchUser] != 80+8 {
		t.Errorf("T8 = %d want 88", dist[ndr.T8NoSuchUser])
	}
	if dist[ndr.T5Blocklisted] != 50 {
		t.Errorf("T5 = %d want 50", dist[ndr.T5Blocklisted])
	}
	if dist[ndr.T14Timeout] != 40 {
		t.Errorf("T14 = %d want 40", dist[ndr.T14Timeout])
	}
	if dist[ndr.T2ReceiverDNS] != 30+12 {
		t.Errorf("T2 = %d want 42", dist[ndr.T2ReceiverDNS])
	}
	if dist[ndr.T9MailboxFull] != 25 {
		t.Errorf("T9 = %d want 25", dist[ndr.T9MailboxFull])
	}
}

func TestAmbiguousExcludedFromTypes(t *testing.T) {
	a := buildAnalysis(t)
	for i := 0; i < a.Records.Len(); i++ {
		c := &a.Classified[i]
		if c.Ambiguous && len(c.Types) != 0 {
			t.Fatalf("ambiguous record carries types %v", c.Types)
		}
	}
	amb := a.BouncedPartials().AmbiguousTemplates()
	if len(amb) == 0 {
		t.Fatal("no ambiguous templates mined")
	}
	if !strings.Contains(amb[0].Template, "Access denied") {
		t.Errorf("dominant ambiguous template: %q", amb[0].Template)
	}
}

func TestPipelineStats(t *testing.T) {
	a := buildAnalysis(t)
	labeled, coverage := a.Pipeline.ManualLabelStats()
	if labeled == 0 || coverage < 0.5 {
		t.Errorf("labeled=%d coverage=%g", labeled, coverage)
	}
	if a.Pipeline.NumTemplates() == 0 {
		t.Error("no templates mined")
	}
}

func TestDetectTypos(t *testing.T) {
	// Beside the corpus's own typo pair, a bounced address that spells
	// its domain in another case: domains compare case-insensitively
	// (RFC 5321 §2.4), so it still meets the sender's working contact.
	at := clock.StudyStart.AddDate(0, 0, 50)
	a := New(append(testCorpus(),
		rec("typist@s.com", "carol.jones@ok.com", at, "250 OK"),
		rec("typist@s.com", "carol.jnes@OK.com", at, renderT(ndr.T8NoSuchUser, "carol.jnes@OK.com")),
	), nil)
	d := a.Detect()
	if _, ok := d.UsernameTypos["alice.smth@ok.com"]; !ok {
		t.Errorf("username typo not detected: %v", d.UsernameTypos)
	}
	if k, ok := d.UsernameTypos["carol.jnes@OK.com"]; !ok || k != typo.Omission {
		t.Errorf("username typo under a mixed-case domain: %v %v in %v", k, ok, d.UsernameTypos)
	}
	if _, ok := d.DomainTypos["okk.com"]; !ok {
		t.Errorf("domain typo okk.com not detected: %v (never-resolved %v)", d.DomainTypos, d.NeverResolved)
	}
	// mx-broken.com recovered: must not be in never-resolved.
	for _, dom := range d.NeverResolved {
		if dom == "mx-broken.com" {
			t.Error("recovered domain flagged never-resolved")
		}
	}
	if !d.FullMailboxes["fullbox@ok.com"] {
		t.Error("full mailbox not detected")
	}
}

func TestRootCauses(t *testing.T) {
	a := buildAnalysis(t)
	tbl := a.BouncedPartials().RootCauses(a.Detect())
	get := func(reason string) int {
		for _, r := range tbl.Rows {
			if r.Reason == reason {
				return r.Emails
			}
		}
		t.Fatalf("row %q missing", reason)
		return 0
	}
	if n := get("Sender MTA listed in blocklists"); n != 50 {
		t.Errorf("blocklist = %d", n)
	}
	if n := get("Receiver domain name typo"); n != 12 {
		t.Errorf("domain typo = %d", n)
	}
	if n := get("Error MX record for receiver domain"); n != 30 {
		t.Errorf("MX error = %d", n)
	}
	if n := get("Receiver mailbox is full"); n != 25 {
		t.Errorf("mailbox full = %d", n)
	}
	if n := get("SMTP session timeout"); n != 40 {
		t.Errorf("timeout = %d", n)
	}
	// Username typos: the 8 verified ones plus the unverified ghost T8s.
	if n := get("Receiver username typo"); n < 8 {
		t.Errorf("username typo = %d", n)
	}
	if tbl.TotalBounced != 150+80+25+30+12+8 {
		t.Errorf("total bounced = %d", tbl.TotalBounced)
	}
}

func TestTopDomains(t *testing.T) {
	a := buildAnalysis(t)
	rows := a.BouncedPartials().TopDomains(3)
	if rows[0].Domain != "ok.com" {
		t.Errorf("top domain %q", rows[0].Domain)
	}
	// gl.com: 60 emails all soft.
	for _, r := range rows {
		if r.Domain == "gl.com" && (r.Soft != 60 || r.Hard != 0) {
			t.Errorf("gl.com: %+v", r)
		}
	}
}

func TestTimeline(t *testing.T) {
	a := buildAnalysis(t)
	tl := a.BouncedPartials().Timeline()
	totalDays := 0
	for d := 0; d < clock.StudyDays; d++ {
		totalDays += tl.Days[d].Non + tl.Days[d].Soft + tl.Days[d].Hard
	}
	if totalDays != a.Records.Len() {
		t.Errorf("timeline loses records: %d vs %d", totalDays, a.Records.Len())
	}
	if len(tl.Months) == 0 {
		t.Error("no monthly volumes")
	}
	sum := 0
	for _, m := range tl.Months {
		sum += m.Emails
	}
	if sum != a.Records.Len() {
		t.Errorf("monthly sums %d", sum)
	}
}

func TestDurationsInference(t *testing.T) {
	a := buildAnalysis(t)
	fig := a.Durations(a.Detect())
	// MX: one domain with one completed episode ≈ 11 days (day 10 →
	// day 20).
	if fig.MXRecords.Entities != 1 {
		t.Fatalf("MX entities = %d", fig.MXRecords.Entities)
	}
	if len(fig.MXRecords.Durations) != 1 {
		t.Fatalf("MX durations = %v", fig.MXRecords.Durations)
	}
	if d := fig.MXRecords.Durations[0]; d < 9 || d > 12 {
		t.Errorf("MX episode %g days, want ≈10-11", d)
	}
	// Mailbox full: fullbox recovered at day 80 (episode day 0 → 80).
	if fig.MailboxFull.Entities != 1 || len(fig.MailboxFull.Durations) != 1 {
		t.Fatalf("mailbox full stats: %+v", fig.MailboxFull)
	}
	if d := fig.MailboxFull.Durations[0]; d < 75 || d > 85 {
		t.Errorf("mailbox episode %g days", d)
	}
}

func TestSTARTTLSStats(t *testing.T) {
	// Add T4 bounces for one top domain.
	records := testCorpus()
	for i := 0; i < 10; i++ {
		records = append(records, rec("a@s.com", "u@ok.com", t0,
			renderT(ndr.T4STARTTLS, "u@ok.com"), "250 OK"))
	}
	a := New(records, nil)
	s := a.BouncedPartials().STARTTLS()
	if s.MandatingDomains != 1 || s.SoftBounced != 10 {
		t.Errorf("STARTTLS stats: %+v", s)
	}
	if s.Top100Share <= 0 {
		t.Errorf("top100 share %g", s.Top100Share)
	}
}

func TestNoEnhancedCodeShare(t *testing.T) {
	records := []dataset.Record{
		rec("a@s.com", "b@x.com", t0, "550 5.1.1 user unknown"),
		rec("a@s.com", "b@x.com", t0, "550 no status code here"),
	}
	a := New(records, nil)
	if got := a.BouncedPartials().NoEnhancedCodeShare(); got != 0.5 {
		t.Errorf("no-enhanced-code share %g want 0.5", got)
	}
}

func TestEpisodize(t *testing.T) {
	mk := func(day int, bad bool) event {
		return event{at: clock.StudyStart.AddDate(0, 0, day).UnixNano(), bad: bad}
	}
	// bad(1) bad(2) good(5) bad(10) good(12): two episodes 4d and 2d.
	durations, episodes, completed := episodize([]event{
		mk(1, true), mk(2, true), mk(5, false), mk(10, true), mk(12, false),
	})
	if episodes != 2 || !completed || len(durations) != 2 {
		t.Fatalf("episodes=%d completed=%v durations=%v", episodes, completed, durations)
	}
	if durations[0] != 4 || durations[1] != 2 {
		t.Errorf("durations %v", durations)
	}
	// Unrecovered tail.
	_, episodes, completed = episodize([]event{mk(1, true), mk(2, true)})
	if episodes != 1 || completed {
		t.Errorf("open episode: %d %v", episodes, completed)
	}
	// Good-only events: no episode.
	_, episodes, _ = episodize([]event{mk(1, false)})
	if episodes != 0 {
		t.Errorf("good-only: %d episodes", episodes)
	}
}

func TestHasTypeAndRank(t *testing.T) {
	a := buildAnalysis(t)
	if r := a.InEmailRank(); len(r) == 0 || r[0].Domain != "ok.com" {
		t.Errorf("rank %v, want ok.com first", r)
	}
	c := ClassifiedRecord{Types: []ndr.Type{ndr.T5Blocklisted}}
	if !c.HasType(ndr.T5Blocklisted) || c.HasType(ndr.T8NoSuchUser) {
		t.Error("HasType mismatch")
	}
}

func TestCatalogSignatures(t *testing.T) {
	// Signatures must be token-aligned: they survive in a Drain template
	// where placeholder-touching tokens are wildcarded.
	cases := map[string]string{
		"554 Service unavailable; Client host [{ip}] blocked using {bl}":                  "554 Service unavailable; Client host",
		"550-5.1.1 {addr} Email address could not be found, or was misspelled ({vendor})": "Email address could not be found, or was misspelled",
		"450 4.2.0 {addr}: Recipient address rejected: Greylisted":                        "Recipient address rejected: Greylisted",
	}
	for text, want := range cases {
		if got := catalogSignature(text); got != want {
			t.Errorf("catalogSignature(%q) = %q want %q", text, got, want)
		}
	}
}

func TestLabelBySignature(t *testing.T) {
	typ, amb, ok := labelBySignature("554 Service unavailable; Client host (.*) blocked using Spamhaus")
	if !ok || amb || typ != ndr.T5Blocklisted {
		t.Errorf("T5 template: %v %v %v", typ, amb, ok)
	}
	typ, amb, ok = labelBySignature("550 5.4.1 Recipient address rejected: Access denied. AS(201806281) (.*)")
	if !ok || !amb || typ != ndr.T16Unknown {
		t.Errorf("ambiguous template: %v %v %v", typ, amb, ok)
	}
	if _, _, ok := labelBySignature("totally novel vendor specific gibberish line"); ok {
		t.Error("unknown template should stay unlabeled")
	}
}

func TestFilterDisagreement(t *testing.T) {
	var records []dataset.Record
	mkFlag := func(flag, to string, results ...string) dataset.Record {
		r := rec("a@s.com", to, t0, results...)
		r.EmailFlag = flag
		return r
	}
	// Build enough volume for the pipeline, with controlled outcomes.
	for i := 0; i < 60; i++ {
		records = append(records, mkFlag("Normal", fmt.Sprintf("u%d@x.com", i%10), "250 OK"))
	}
	t13 := renderT(ndr.T13ContentSpam, "u@x.com")
	// 10 sender-spam caught by the receiver too (agreement).
	for i := 0; i < 10; i++ {
		records = append(records, mkFlag("Spam", "u1@x.com", t13))
	}
	// 6 sender-spam accepted by the receiver (disagreement).
	for i := 0; i < 6; i++ {
		records = append(records, mkFlag("Spam", "u2@x.com", "250 OK"))
	}
	// 4 sender-spam bounced for a non-content reason (disagreement too).
	for i := 0; i < 4; i++ {
		records = append(records, mkFlag("Spam", "ghost@x.com", renderT(ndr.T8NoSuchUser, "ghost@x.com")))
	}
	// 8 receiver-spam flagged Normal, each retried twice (reputation cost).
	for i := 0; i < 8; i++ {
		records = append(records, mkFlag("Normal", "u3@x.com", t13, t13))
	}
	a := New(records, nil)
	f := a.BouncedPartials().FilterDisagreement()
	if f.SenderSpamTotal != 20 {
		t.Fatalf("sender spam total %d", f.SenderSpamTotal)
	}
	if f.SenderSpamNotSpamAtReceiver != 10 {
		t.Errorf("sender disagreement %d want 10", f.SenderSpamNotSpamAtReceiver)
	}
	if f.ReceiverSpamTotal != 18 {
		t.Errorf("receiver spam total %d want 18", f.ReceiverSpamTotal)
	}
	if f.ReceiverSpamFlaggedNormal != 8 {
		t.Errorf("receiver disagreement %d want 8", f.ReceiverSpamFlaggedNormal)
	}
	if f.NormalSpamRetryAttempts != 8 {
		t.Errorf("retry attempts %d want 8", f.NormalSpamRetryAttempts)
	}
	if f.SenderDisagreeShare() != 0.5 {
		t.Errorf("sender share %g", f.SenderDisagreeShare())
	}
}

func TestBlocklistRecovery(t *testing.T) {
	var records []dataset.Record
	t5 := renderT(ndr.T5Blocklisted, "u@x.com")
	for i := 0; i < 50; i++ {
		records = append(records, rec("a@s.com", "u@x.com", t0, "250 OK"))
	}
	// 8 recovered after 2-3 attempts, 2 never recovered.
	for i := 0; i < 8; i++ {
		records = append(records, rec("a@s.com", "u@x.com", t0, t5, t5, "250 OK"))
	}
	for i := 0; i < 2; i++ {
		records = append(records, rec("a@s.com", "u@x.com", t0, t5, t5, t5))
	}
	a := New(records, nil)
	r := a.BouncedPartials().BlocklistRecovery()
	if r.Affected != 10 || r.Recovered != 8 {
		t.Fatalf("recovery: %+v", r)
	}
	if r.RecoveryShare() != 0.8 {
		t.Errorf("share %g", r.RecoveryShare())
	}
	if r.AvgAttempts != 3 {
		t.Errorf("avg attempts %g want 3", r.AvgAttempts)
	}
}

func TestContainsFoldMatchesToLower(t *testing.T) {
	for _, s := range []string{
		"", "inactiv", "inactive", "550 5.2.1 account INACTIVE and disabled", "InAcTiVe", "xinactivex",
		"in active", "inactivE", "ininactive", "İNACTİVE", "İnactive mailbox", "posta kutusu inaktif é",
		"inactive é", "\xffinactive", "\xffINACTIVE",
	} {
		if got, want := containsFold(s, "inactive"), strings.Contains(strings.ToLower(s), "inactive"); got != want {
			t.Errorf("containsFold(%q) = %v, strings.ToLower says %v", s, got, want)
		}
	}
	line := "550-5.2.1 The email account that you tried to reach is inactive and has been disabled (V1)"
	if n := testing.AllocsPerRun(100, func() { containsFold(line, "inactive") }); n != 0 {
		t.Errorf("containsFold allocates %v times on an ASCII line", n)
	}
}
