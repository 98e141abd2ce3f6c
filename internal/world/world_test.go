package world

import (
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/dns"
	"repro/internal/mail"
	"repro/internal/simrng"
	"repro/internal/typo"
)

func tinyWorld(t *testing.T) *World {
	t.Helper()
	return New(TinyConfig())
}

func TestDeterministicGeneration(t *testing.T) {
	a, b := New(TinyConfig()), New(TinyConfig())
	if len(a.Domains) != len(b.Domains) || len(a.Senders) != len(b.Senders) {
		t.Fatal("entity counts differ across identical seeds")
	}
	for i := range a.Domains {
		if a.Domains[i].Name != b.Domains[i].Name || a.Domains[i].MXIP != b.Domains[i].MXIP {
			t.Fatalf("domain %d differs: %s vs %s", i, a.Domains[i].Name, b.Domains[i].Name)
		}
	}
	sa := a.EmailsForDay(10)
	sb := b.EmailsForDay(10)
	if len(sa) != len(sb) {
		t.Fatalf("day-10 submissions differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Msg.To != sb[i].Msg.To || sa[i].Msg.ID != sb[i].Msg.ID {
			t.Fatalf("submission %d differs", i)
		}
	}
}

func TestProxyFleet(t *testing.T) {
	w := tinyWorld(t)
	if len(w.Proxies) != 34 {
		t.Fatalf("proxies = %d want 34", len(w.Proxies))
	}
	regions := map[string]int{}
	hot := 0
	for _, p := range w.Proxies {
		regions[p.Region]++
		if p.TrapExposure > 1 {
			hot++
		}
		// Proxy A records must resolve.
		ips, code := w.Resolver.ResolveA(p.Hostname, clock.StudyStart)
		if code != dns.NoError || len(ips) != 1 || ips[0] != p.IP {
			t.Errorf("proxy %s DNS broken: %v %v", p.Hostname, ips, code)
		}
		// Geo must place the proxy in its region.
		cc, asn, ok := w.Geo.Lookup(p.IP)
		if !ok || cc != p.Region || asn != ProxyASN {
			t.Errorf("proxy %s geo lookup: %s/%d/%v", p.Hostname, cc, asn, ok)
		}
	}
	if len(regions) != 6 {
		t.Errorf("proxy regions = %v", regions)
	}
	if hot != 5 {
		t.Errorf("trap-hot proxies = %d want 5", hot)
	}
}

func TestWellKnownDomains(t *testing.T) {
	w := tinyWorld(t)
	gmail := w.DomainByName["gmail.com"]
	if gmail == nil || gmail.Rank != 0 || gmail.ASN != 15169 {
		t.Fatalf("gmail: %+v", gmail)
	}
	hotmail := w.DomainByName["hotmail.com"]
	if hotmail == nil || !hotmail.Policy.UsesDNSBL || !hotmail.Policy.AmbiguousNDR {
		t.Fatalf("hotmail policy: %+v", hotmail.Policy)
	}
	if w.DomainByName["bbva.com"].Policy.TLS != TLSMandatory {
		t.Error("bbva.com should mandate TLS")
	}
	// Weight sum ≈ 1.
	sum := 0.0
	for _, d := range w.Domains {
		sum += d.Weight
	}
	if sum < 0.98 || sum > 1.02 {
		t.Errorf("domain weights sum to %g", sum)
	}
}

func TestReceiverDNSResolvable(t *testing.T) {
	w := tinyWorld(t)
	for _, d := range w.Domains {
		if len(d.MXOutages) > 0 {
			continue
		}
		hosts, code := w.Resolver.ResolveMX(d.Name, clock.StudyStart)
		if code == dns.ServFail {
			continue // injected transient; resolver-level, fine
		}
		if code != dns.NoError || len(hosts) == 0 || hosts[0] != d.MXHost {
			t.Errorf("MX(%s) = %v %v", d.Name, hosts, code)
		}
	}
}

func TestMXOutageVisibleInDNS(t *testing.T) {
	w := New(DefaultConfig())
	found := false
	for _, d := range w.Domains {
		for _, win := range d.MXOutages {
			found = true
			mid := win.From.Add(win.Until.Sub(win.From) / 2)
			// Query the authority directly: the resolver layer may also
			// inject transient SERVFAILs, which are not what this test
			// verifies.
			if ans := w.DNS.Query(d.Name, dns.TypeMX, mid); ans.Code != dns.NXDomain {
				t.Errorf("MX(%s) during outage = %v want NXDOMAIN", d.Name, ans.Code)
			}
		}
	}
	if !found {
		t.Error("no MX outages generated at default scale")
	}
}

func TestSenderAuthLifecycle(t *testing.T) {
	w := New(DefaultConfig())
	spf := &auth.SPFEvaluator{Resolver: w.Resolver}
	dkim := &auth.DKIMVerifier{Resolver: w.Resolver}
	proxyIP := w.Proxies[0].IP

	var healthy, broken *SenderDomain
	for _, sd := range w.SenderDomains {
		if sd.AlwaysBrokenAuth && broken == nil {
			broken = sd
		}
		if !sd.AlwaysBrokenAuth && len(sd.AuthBreakWindows) == 0 && len(sd.DNSOutages) == 0 && healthy == nil {
			healthy = sd
		}
	}
	if healthy == nil || broken == nil {
		t.Fatal("world lacks healthy/broken sender domains")
	}

	at := clock.StudyStart.AddDate(0, 0, 7)
	w.Resolver.Flush()
	if got := spf.Evaluate(proxyIP, healthy.Name, at); got != auth.SPFPass {
		t.Errorf("healthy SPF = %v", got)
	}
	sig := healthy.Signer.Sign("m-1")
	if got := dkim.Verify(sig, "m-1", at); got != auth.DKIMPass {
		t.Errorf("healthy DKIM = %v", got)
	}

	w.Resolver.Flush()
	if got := spf.Evaluate(proxyIP, broken.Name, at); got == auth.SPFPass {
		t.Errorf("always-broken SPF passed")
	}
	sig = broken.Signer.Sign("m-2")
	if got := dkim.Verify(sig, "m-2", at); got == auth.DKIMPass {
		t.Errorf("always-broken DKIM passed")
	}
}

func TestEpisodicAuthBreakWindows(t *testing.T) {
	w := New(DefaultConfig())
	spf := &auth.SPFEvaluator{Resolver: w.Resolver}
	proxyIP := w.Proxies[3].IP
	checked := 0
	for _, sd := range w.SenderDomains {
		if sd.AlwaysBrokenAuth || len(sd.AuthBreakWindows) == 0 || len(sd.DNSOutages) > 0 {
			continue
		}
		win := sd.AuthBreakWindows[0]
		if win.Until.IsZero() || win.From.Before(clock.StudyStart) {
			continue
		}
		mid := win.From.Add(win.Until.Sub(win.From) / 2)
		w.Resolver.Flush()
		during := spf.Evaluate(proxyIP, sd.Name, mid)
		w.Resolver.Flush()
		before := spf.Evaluate(proxyIP, sd.Name, win.From.Add(-time.Hour))
		if before != auth.SPFPass {
			t.Errorf("%s before episode: %v", sd.Name, before)
		}
		if during == auth.SPFPass {
			t.Errorf("%s during episode: pass", sd.Name)
		}
		checked++
		if checked >= 5 {
			break
		}
	}
	if checked == 0 {
		t.Error("no bounded auth episodes found")
	}
}

func TestWorkloadVolumeAndOrdering(t *testing.T) {
	w := tinyWorld(t)
	total := 0
	for d := 0; d < clock.StudyDays; d++ {
		subs := w.EmailsForDay(d)
		total += len(subs)
		for i := 1; i < len(subs); i++ {
			if subs[i].Msg.QueuedAt.Before(subs[i-1].Msg.QueuedAt) {
				t.Fatalf("day %d not sorted", d)
			}
		}
		for _, s := range subs {
			if clock.Day(s.Msg.QueuedAt) != d {
				t.Fatalf("submission queued on wrong day: %v vs %d", s.Msg.QueuedAt, d)
			}
		}
	}
	want := w.Cfg.TotalEmails
	if total < want*90/100 || total > want*115/100 {
		t.Errorf("total submissions %d, want ≈%d", total, want)
	}
}

func TestWorkloadWeekendDip(t *testing.T) {
	w := tinyWorld(t)
	// Day 4 is Saturday 2022-06-18; day 6 is Monday 2022-06-20.
	sat := len(w.EmailsForDay(4))
	mon := len(w.EmailsForDay(6))
	if sat >= mon {
		t.Errorf("weekend volume %d >= weekday %d", sat, mon)
	}
}

func TestMessageIDsUnique(t *testing.T) {
	w := tinyWorld(t)
	seen := map[string]bool{}
	for d := 0; d < 30; d++ {
		for _, s := range w.EmailsForDay(d) {
			if seen[s.Msg.ID] {
				t.Fatalf("duplicate message ID %s", s.Msg.ID)
			}
			seen[s.Msg.ID] = true
		}
	}
}

func TestTypoInjectionRates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalEmails = 60000
	w := New(cfg)
	var userTypos, domTypos, n int
	for d := 0; d < 60; d++ {
		for _, s := range w.EmailsForDay(d) {
			if s.Sender.Dom.Attacker != NotAttacker || !s.Sender.PersistentTypo.IsZero() {
				continue
			}
			n++
			if s.TypoKind != typo.KindNone {
				if s.TypoInDomain {
					domTypos++
				} else {
					userTypos++
				}
			}
		}
	}
	userRate := float64(userTypos) / float64(n)
	if userRate < cfg.UserTypoRate*0.5 || userRate > cfg.UserTypoRate*1.6 {
		t.Errorf("user typo rate %g want ≈%g", userRate, cfg.UserTypoRate)
	}
	if domTypos == 0 {
		t.Error("no domain typos injected")
	}
}

func TestTypoTargetsMostlyNonexistent(t *testing.T) {
	w := tinyWorld(t)
	for d := 0; d < 120; d++ {
		for _, s := range w.EmailsForDay(d) {
			if s.TypoInDomain {
				if w.DomainByName[s.Msg.To.Domain] != nil {
					t.Errorf("domain typo %s collides with live domain", s.Msg.To.Domain)
				}
			}
		}
	}
}

func TestGuessingAttackerHitRate(t *testing.T) {
	w := New(DefaultConfig())
	var guesser *Sender
	for _, s := range w.Senders {
		if s.Dom.Attacker == UsernameGuesser {
			guesser = s
			break
		}
	}
	if guesser == nil {
		t.Fatal("no guessing attacker")
	}
	victim := w.DomainByName[guesser.Contacts[0].Addr.Domain]
	hits := 0
	for _, c := range guesser.Contacts {
		if c.Addr.Domain != victim.Name {
			t.Fatalf("guesser targets multiple domains")
		}
		if victim.UserExists(c.Addr.Local) {
			hits++
		}
	}
	rate := float64(hits) / float64(len(guesser.Contacts))
	if rate < 0.004 || rate > 0.03 {
		t.Errorf("guess hit rate %g want ≈0.009", rate)
	}
	if len(guesser.Contacts) != w.Cfg.GuessUsernamesPerAttacker {
		t.Errorf("guess list size %d want %d", len(guesser.Contacts), w.Cfg.GuessUsernamesPerAttacker)
	}
}

func TestBulkSpammerLeakShare(t *testing.T) {
	w := New(DefaultConfig())
	for _, s := range w.Senders {
		if s.Dom.Attacker != BulkSpammer {
			continue
		}
		addrs := make([]string, len(s.Contacts))
		for i, c := range s.Contacts {
			addrs[i] = c.Addr.String()
		}
		if share := w.Breach.PwnedShare(addrs); share <= 0.80 {
			t.Errorf("bulk spammer %s leak share %g, want > 0.80", s.Addr, share)
		}
	}
}

func TestSpamFlagging(t *testing.T) {
	w := tinyWorld(t)
	flags := map[mail.Flag]int{}
	for d := 100; d < 160; d++ {
		for _, s := range w.EmailsForDay(d) {
			flags[s.Msg.Flag]++
		}
	}
	total := flags[mail.FlagSpam] + flags[mail.FlagNormal]
	spamShare := float64(flags[mail.FlagSpam]) / float64(total)
	if spamShare < 0.01 || spamShare > 0.30 {
		t.Errorf("spam share %g out of plausible range", spamShare)
	}
}

func TestFreemailRegistries(t *testing.T) {
	w := tinyWorld(t)
	for _, p := range FreemailProviders {
		if w.UserRegs[p] == nil {
			t.Errorf("no username registry for %s", p)
		}
	}
	yahoo := w.UserRegs["yahoo.com"]
	if !yahoo.RecyclesAccounts {
		t.Error("yahoo should recycle accounts")
	}
	if w.UserRegs["hotmail.com"].RecyclesAccounts {
		t.Error("hotmail should not recycle accounts")
	}
	// Active users must be registered active.
	d := w.DomainByName["yahoo.com"]
	for _, local := range d.UserList[:minInt(5, len(d.UserList))] {
		st := yahoo.State(local)
		if st != 1 && st != 4 { // UserActive or UserRecycled
			t.Errorf("yahoo user %s state %v", local, st)
		}
	}
}

func TestDeadDomainsExpiredAndAudited(t *testing.T) {
	w := New(DefaultConfig())
	if len(w.DeadDomains) != w.Cfg.DeadDomains {
		t.Fatalf("dead domains = %d", len(w.DeadDomains))
	}
	reRegistered := 0
	auditDate := time.Date(2024, 2, 3, 0, 0, 0, 0, time.UTC)
	for _, dd := range w.DeadDomains {
		// Dead after expiry: MX must not resolve.
		w.Resolver.Flush()
		after := dd.ExpiredAt.Add(24 * time.Hour)
		if after.Before(clock.StudyEnd) {
			if _, code := w.Resolver.ResolveMX(dd.Name, after); code == dns.NoError {
				t.Errorf("dead domain %s resolves after expiry", dd.Name)
			}
		}
		if _, ok := w.Registry.CurrentRegistration(dd.Name, auditDate); ok {
			reRegistered++
		}
	}
	if reRegistered == 0 {
		t.Error("no dead domains re-registered by audit time")
	}
}

func TestMailboxEpisodes(t *testing.T) {
	w := New(DefaultConfig())
	full, inactive, total := 0, 0, 0
	for _, d := range w.Domains {
		for _, m := range d.Users {
			total++
			if len(m.FullWindows) > 0 {
				full++
			}
			if !m.InactiveFrom.IsZero() {
				inactive++
			}
		}
	}
	if full == 0 || inactive == 0 {
		t.Fatalf("full=%d inactive=%d of %d mailboxes", full, inactive, total)
	}
	rate := float64(full) / float64(total)
	if rate < 0.004 || rate > 0.15 {
		t.Errorf("mailbox-full rate %g implausible", rate)
	}
}

func TestTemplateDialectStable(t *testing.T) {
	w := tinyWorld(t)
	d := w.Domains[3]
	r := simrng.New(9)
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		counts[d.TemplateFor(8, r)]++ // T8NoSuchUser
	}
	// One preferred template should dominate (~85%).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 140 {
		t.Errorf("dialect not stable: %v", counts)
	}
}

func TestPersistentTypoSenderExists(t *testing.T) {
	w := New(DefaultConfig())
	found := 0
	for _, s := range w.Senders {
		if !s.PersistentTypo.IsZero() {
			found++
			if w.DomainByName[s.PersistentTypo.Domain] == nil {
				t.Errorf("persistent typo at unknown domain %s", s.PersistentTypo.Domain)
			}
		}
	}
	if found == 0 {
		t.Error("no forwarding-typo senders generated")
	}
}

func TestSubmissionAddressesParse(t *testing.T) {
	w := tinyWorld(t)
	for _, s := range w.EmailsForDay(50) {
		if _, err := mail.ParseAddress(s.Msg.To.String()); err != nil {
			t.Errorf("unparseable recipient %q", s.Msg.To)
		}
		if _, err := mail.ParseAddress(s.Msg.From.String()); err != nil {
			t.Errorf("unparseable sender %q", s.Msg.From)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = strings.Contains
