// Package squat implements the paper's Section-5 email-address
// squatting evaluation: the domain funnel (never-resolved → NXDOMAIN →
// purchasable), the username funnel (heavily-mailed non-existent
// addresses probed against provider registration UIs), historical
// exposure quantification, the Figure-9 weekly timeline, and the
// re-registration WHOIS audit.
package squat

import (
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/dns"
	"repro/internal/ndr"
)

// Config parameterizes the scan.
type Config struct {
	// ScanDate is when domain availability is checked (paper: the
	// GoDaddy API query on 2023-12-03).
	ScanDate time.Time
	// AuditDate is the WHOIS re-check (paper: 2024-02-03).
	AuditDate time.Time
	// MinUsernameEmails is the incoming-email threshold for probing a
	// non-existent username (paper: 100 at full scale).
	MinUsernameEmails int
	// MaxUsernameProbes bounds the registration-UI probes (paper: 875).
	MaxUsernameProbes int
}

// DefaultConfig matches the paper's dates with thresholds scaled for
// the simulation corpus.
func DefaultConfig() Config {
	return Config{
		ScanDate:          time.Date(2023, 12, 3, 0, 0, 0, 0, time.UTC),
		AuditDate:         time.Date(2024, 2, 3, 0, 0, 0, 0, time.UTC),
		MinUsernameEmails: 2,
		MaxUsernameProbes: 875,
	}
}

// DomainFinding is one vulnerable (registrable) domain.
type DomainFinding struct {
	Domain  string
	IsTypo  bool
	Senders int
	Emails  int
	// ReceivedHistorically reports the domain accepted mail inside the
	// study window before dying (residual-trust class).
	ReceivedHistorically bool
}

// UsernameFinding is one probed username.
type UsernameFinding struct {
	Address     string
	Provider    string
	Emails      int
	Registrable bool
	// PastWorking reports the address accepted mail earlier in the
	// dataset (paper: 25 of 312, mostly at Yahoo).
	PastWorking bool
}

// Result is the complete squatting evaluation.
type Result struct {
	// Domain funnel counters.
	NeverResolved   int // domains with only DNS failures in the dataset
	NXDomainAtScan  int // still NXDOMAIN when actively queried
	VulnerableCount int // available for registration at ScanDate

	VulnerableDomains []DomainFinding
	DomainSenders     int // distinct senders mailing vulnerable domains
	DomainEmails      int
	TypoDomains       int
	HistoricallyRecv  int

	// Re-registration audit (paper: 751 of 3K re-registered; 105 with
	// MX; 56.19% registrant unchanged, 26.67% changed).
	ReRegistered      int
	ReRegisteredMX    int
	RegistrantSame    int
	RegistrantChanged int

	// Username funnel.
	ProbedUsernames     int
	VulnerableUsernames []UsernameFinding
	RegistrableCount    int
	PastWorking         int
	UsernameSenders     int
	UsernameEmails      int

	// Figure 9: weekly exposure.
	WeeklySenders [clock.StudyWeeks]int
	WeeklyEmails  [clock.StudyWeeks]int
}

// Scan runs the evaluation over a classified corpus. It needs
// Env.Resolver (active DNS queries), Env.Registry (availability +
// WHOIS) and Env.UserRegs (registration-UI probing); missing services
// skip the corresponding funnel.
func Scan(a *analysis.Analysis, det *analysis.Detections, cfg Config) *Result {
	res := &Result{}
	vulnerable := scanDomains(a, det, cfg, res)
	vulnUsers := scanUsernames(a, cfg, res)
	timeline(a, vulnerable, vulnUsers, res)
	return res
}

func scanDomains(a *analysis.Analysis, det *analysis.Detections, cfg Config, res *Result) map[string]bool {
	env := a.Env
	vulnerable := map[string]bool{}
	if env == nil || env.Registry == nil || env.Resolver == nil {
		return vulnerable
	}
	res.NeverResolved = len(det.NeverResolved)
	for _, domain := range det.NeverResolved {
		// Active A/MX query at scan time (the paper's "actively query
		// the A records ... retain domains returning NXDOMAIN").
		if _, code := env.Resolver.ResolveMX(domain, cfg.ScanDate); code != dns.NXDomain {
			continue
		}
		res.NXDomainAtScan++
		if !env.Registry.Available(domain, cfg.ScanDate) {
			continue
		}
		vulnerable[domain] = true
	}
	res.VulnerableCount = len(vulnerable)

	// Exposure: who mailed these domains, how often, and did the domain
	// ever accept mail inside the window.
	senders := map[string]map[string]bool{}
	emails := map[string]int{}
	received := map[string]bool{}
	for i := range a.Classified {
		c := &a.Classified[i]
		to := c.ToDomain
		if !vulnerable[to] {
			continue
		}
		if senders[to] == nil {
			senders[to] = map[string]bool{}
		}
		senders[to][a.Records.At(i).From] = true
		emails[to]++
		if c.Succeeded {
			received[to] = true
		}
	}
	// Note: never-resolved domains can't have succeeded; the
	// residual-trust class comes from mid-study deaths, detected below
	// by scanning ALL domains that died (succeeded earlier, NXDOMAIN at
	// scan, available).
	for domain, st := range domainLifecycle(a) {
		if vulnerable[domain] || st != lifecycleDied {
			continue
		}
		if _, code := env.Resolver.ResolveMX(domain, cfg.ScanDate); code != dns.NXDomain {
			continue
		}
		if !env.Registry.Available(domain, cfg.ScanDate) {
			continue
		}
		vulnerable[domain] = true
		received[domain] = true
		res.NXDomainAtScan++
	}
	res.VulnerableCount = len(vulnerable)

	// Second exposure pass now that died-mid-study domains are included.
	senders = map[string]map[string]bool{}
	emails = map[string]int{}
	for i := range a.Classified {
		to := a.Classified[i].ToDomain
		if !vulnerable[to] {
			continue
		}
		if senders[to] == nil {
			senders[to] = map[string]bool{}
		}
		senders[to][a.Records.At(i).From] = true
		emails[to]++
	}

	allSenders := map[string]bool{}
	for domain := range vulnerable {
		_, isTypo := det.DomainTypos[domain]
		f := DomainFinding{
			Domain:               domain,
			IsTypo:               isTypo,
			Senders:              len(senders[domain]),
			Emails:               emails[domain],
			ReceivedHistorically: received[domain],
		}
		res.VulnerableDomains = append(res.VulnerableDomains, f)
		res.DomainEmails += f.Emails
		if isTypo {
			res.TypoDomains++
		}
		if f.ReceivedHistorically {
			res.HistoricallyRecv++
		}
		for s := range senders[domain] {
			allSenders[s] = true
		}
		// Re-registration audit.
		if reg, ok := env.Registry.CurrentRegistration(domain, cfg.AuditDate); ok {
			res.ReRegistered++
			if reg.HasMX {
				res.ReRegisteredMX++
			}
			hist := env.Registry.WHOISHistory(domain)
			if len(hist) >= 2 {
				if hist[0].Registrant == reg.Registrant {
					res.RegistrantSame++
				} else {
					res.RegistrantChanged++
				}
			}
		}
	}
	res.DomainSenders = len(allSenders)
	sort.Slice(res.VulnerableDomains, func(i, j int) bool {
		return res.VulnerableDomains[i].Emails > res.VulnerableDomains[j].Emails
	})
	return vulnerable
}

type lifecycle int

const (
	lifecycleAlive lifecycle = iota
	lifecycleDied            // succeeded earlier, only DNS failures later
)

// domainLifecycle classifies receiver domains that accepted mail and
// later only failed DNS — the expired-mid-study class.
func domainLifecycle(a *analysis.Analysis) map[string]lifecycle {
	type state struct {
		lastOK   time.Time
		lastFail time.Time
		okSeen   bool
		failSeen bool
	}
	st := map[string]*state{}
	for i := range a.Classified {
		rec, c := a.Records.At(i), &a.Classified[i]
		s := st[c.ToDomain]
		if s == nil {
			s = &state{}
			st[c.ToDomain] = s
		}
		if c.Succeeded {
			s.okSeen = true
			if rec.EndTime.After(s.lastOK) {
				s.lastOK = rec.EndTime
			}
		} else if onlyT2(a, i) {
			s.failSeen = true
			if rec.StartTime.After(s.lastFail) {
				s.lastFail = rec.StartTime
			}
		}
	}
	out := map[string]lifecycle{}
	for domain, s := range st {
		if s.okSeen && s.failSeen && s.lastFail.After(s.lastOK) {
			out[domain] = lifecycleDied
		} else {
			out[domain] = lifecycleAlive
		}
	}
	return out
}

func onlyT2(a *analysis.Analysis, i int) bool {
	c := a.Classified[i]
	return len(c.Types) == 1 && c.Types[0] == ndr.T2ReceiverDNS
}

func scanUsernames(a *analysis.Analysis, cfg Config, res *Result) map[string]bool {
	env := a.Env
	vuln := map[string]bool{}
	if env == nil || len(env.UserRegs) == 0 {
		return vuln
	}
	// Candidate addresses: T8-bounced at providers with a registration
	// UI, ranked by incoming-email count.
	counts := map[string]int{}
	everOK := map[string]bool{}
	for i := range a.Classified {
		c := &a.Classified[i]
		if env.UserRegs[c.ToDomain] == nil {
			continue
		}
		rec := a.Records.At(i)
		if c.Succeeded {
			everOK[rec.To] = true
			continue
		}
		if c.HasType(ndr.T8NoSuchUser) {
			counts[rec.To]++
		}
	}
	type cand struct {
		addr string
		n    int
	}
	var cands []cand
	for addr, n := range counts {
		if n >= cfg.MinUsernameEmails {
			cands = append(cands, cand{addr, n})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].n != cands[j].n {
			return cands[i].n > cands[j].n
		}
		return cands[i].addr < cands[j].addr
	})
	if len(cands) > cfg.MaxUsernameProbes {
		cands = cands[:cfg.MaxUsernameProbes]
	}
	res.ProbedUsernames = len(cands)

	senders := map[string]bool{}
	for _, c := range cands {
		at := strings.LastIndexByte(c.addr, '@')
		local, provider := c.addr[:at], c.addr[at+1:]
		reg := env.UserRegs[provider]
		registrable := reg.Registrable(local)
		f := UsernameFinding{
			Address:     c.addr,
			Provider:    provider,
			Emails:      c.n,
			Registrable: registrable,
			PastWorking: everOK[c.addr],
		}
		if registrable {
			res.RegistrableCount++
			vuln[c.addr] = true
			res.UsernameEmails += c.n
			if f.PastWorking {
				res.PastWorking++
			}
			res.VulnerableUsernames = append(res.VulnerableUsernames, f)
		}
	}
	// Distinct senders that mailed vulnerable usernames.
	for i := 0; i < a.Records.Len(); i++ {
		if vuln[a.Records.At(i).To] {
			senders[a.Records.At(i).From] = true
		}
	}
	res.UsernameSenders = len(senders)
	return vuln
}

// timeline fills the Figure-9 weekly exposure series.
func timeline(a *analysis.Analysis, vulnDomains, vulnUsers map[string]bool, res *Result) {
	weekSenders := make([]map[string]bool, clock.StudyWeeks)
	for i := 0; i < a.Records.Len(); i++ {
		rec := a.Records.At(i)
		if !vulnDomains[a.Classified[i].ToDomain] && !vulnUsers[rec.To] {
			continue
		}
		wk := clock.Week(rec.StartTime)
		res.WeeklyEmails[wk]++
		if weekSenders[wk] == nil {
			weekSenders[wk] = map[string]bool{}
		}
		weekSenders[wk][rec.From] = true
	}
	for wk, m := range weekSenders {
		res.WeeklySenders[wk] = len(m)
	}
}
