// Package advise turns the paper's Section-6.2 recommendations into an
// advisory engine: given a classified corpus, it emits the concrete,
// evidence-backed actions the paper recommends to each audience — the
// sender ESP (monitor proxy reputation, honor greylisting), receiver
// ESPs (weigh blocklist collateral), domain managers (fix DKIM/SPF and
// MX records, consider protective registration), and users (clean full
// mailboxes, fix typo'd contacts, deactivate stale accounts).
package advise

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/ndr"
	"repro/internal/squat"
	"repro/internal/stats"
)

// Audience is who an advisory targets (the paper's four audiences).
type Audience int

// Audiences.
const (
	Community Audience = iota
	SenderESP
	ReceiverESP
	DomainManager
	EmailUser
)

// String names the audience.
func (a Audience) String() string {
	switch a {
	case Community:
		return "email community"
	case SenderESP:
		return "sender ESP"
	case ReceiverESP:
		return "receiver ESP"
	case DomainManager:
		return "domain manager"
	case EmailUser:
		return "email user"
	}
	return "?"
}

// Severity grades an advisory.
type Severity int

// Severities.
const (
	Info Severity = iota
	Warning
	Critical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "INFO"
	case Warning:
		return "WARN"
	case Critical:
		return "CRIT"
	}
	return "?"
}

// Advisory is one actionable recommendation with its evidence.
type Advisory struct {
	Audience Audience
	Severity Severity
	Subject  string // the entity the advisory is about
	Action   string
	Evidence string
}

// Config tunes the rule thresholds.
type Config struct {
	// ProxyListedDutyWarn flags proxies blocklisted more than this share
	// of days (paper: five proxies exceeded 0.70).
	ProxyListedDutyWarn float64
	// BlocklistCollateralWarn flags the receiver-side blocklist when
	// more than this share of blocked mail was flagged Normal by the
	// sender (paper: 78.06%).
	BlocklistCollateralWarn float64
	// AuthEpisodeDaysCrit flags sender domains whose DKIM/SPF breakage
	// exceeded this many days (paper: 384 domains took >1 month).
	AuthEpisodeDaysCrit float64
	// FullMailboxDaysWarn flags recipients over quota at least this long
	// (paper: >51% of episodes exceed 30 days).
	FullMailboxDaysWarn float64
	// MaxPerRule bounds the advisories emitted per rule.
	MaxPerRule int
}

// DefaultConfig uses the paper's thresholds.
func DefaultConfig() Config {
	return Config{
		ProxyListedDutyWarn:     0.70,
		BlocklistCollateralWarn: 0.50,
		AuthEpisodeDaysCrit:     30,
		FullMailboxDaysWarn:     30,
		MaxPerRule:              10,
	}
}

// Run evaluates every rule over a corpus's results: ps answers the
// tables and figures (a study's round-1 set), det the entity
// detections, and fig is Figure 7 as inferred from det — the caller's,
// so a report that also prints the figure walks the corpus for it
// once. sq may be nil (the squatting rules are skipped).
func Run(ps *analysis.PartialSet, det *analysis.Detections, fig analysis.DurationsFigure, sq *squat.Result, cfg Config) []Advisory {
	if cfg.MaxPerRule <= 0 {
		cfg = DefaultConfig()
	}
	var out []Advisory
	out = append(out, communityRules(ps)...)
	out = append(out, senderESPRules(ps, cfg)...)
	out = append(out, receiverESPRules(ps, cfg)...)
	out = append(out, domainManagerRules(fig, cfg)...)
	out = append(out, userRules(det, fig, cfg)...)
	if sq != nil {
		out = append(out, squattingRules(sq, cfg)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].Audience < out[j].Audience
	})
	return out
}

// communityRules: standardize NDR reporting (the paper's headline call).
func communityRules(ps *analysis.PartialSet) []Advisory {
	var out []Advisory
	noCode := ps.NoEnhancedCodeShare()
	if noCode > 0.15 {
		out = append(out, Advisory{
			Audience: Community, Severity: Warning,
			Subject:  "NDR standardization",
			Action:   "standardize bounce templates and enhanced status code usage (IETF)",
			Evidence: fmt.Sprintf("%.1f%% of NDR lines carry no RFC 3463 enhanced status code", noCode*100),
		})
	}
	o := ps.Overview()
	if o.AmbiguousBounced > 0 {
		out = append(out, Advisory{
			Audience: Community, Severity: Warning,
			Subject: "ambiguous NDR templates",
			Action:  "define informative templates for reception refusals",
			Evidence: fmt.Sprintf("%d bounced emails (%.1f%%) returned only ambiguous text like \"Access denied\"",
				o.AmbiguousBounced, stats.Pct(o.AmbiguousBounced, o.Bounced())),
		})
	}
	return out
}

// senderESPRules: reputation monitoring, greylist compliance, retry
// budget.
func senderESPRules(ps *analysis.PartialSet, cfg Config) []Advisory {
	var out []Advisory
	if ps.Env != nil && ps.Env.Blocklist != nil {
		for i, ip := range ps.Env.ProxyIPs {
			days := 0
			for d := 0; d < clock.StudyDays; d++ {
				if ps.Env.Blocklist.Listed(ip, clock.DayStart(d).Add(12*time.Hour)) {
					days++
				}
			}
			duty := float64(days) / clock.StudyDays
			if duty > cfg.ProxyListedDutyWarn && len(out) < cfg.MaxPerRule {
				out = append(out, Advisory{
					Audience: SenderESP, Severity: Critical,
					Subject:  fmt.Sprintf("proxy MTA %s", ip),
					Action:   "rotate or delist this proxy and audit the customers routed through it",
					Evidence: fmt.Sprintf("blocklisted on %.0f%% of days (proxy #%d)", duty*100, i),
				})
			}
		}
	}
	dist := ps.TypeDistribution()
	o := ps.Overview()
	bounced := o.Bounced() - o.AmbiguousBounced
	if t6 := dist[ndr.T6Greylisted]; t6 > 0 && stats.Pct(t6, bounced) > 1 {
		out = append(out, Advisory{
			Audience: SenderESP, Severity: Warning,
			Subject: "greylisting compliance",
			Action:  "retry greylisted deliveries from the same proxy MTA (tuple-preserving retry)",
			Evidence: fmt.Sprintf("%d emails (%.1f%% of bounces) deferred by greylisting; random-proxy retries violate the tuple",
				t6, stats.Pct(t6, bounced)),
		})
	}
	if o.SoftAvgAttempts > 0 && o.SoftAvgAttempts < 3 {
		out = append(out, Advisory{
			Audience: SenderESP, Severity: Info,
			Subject:  "retry budget",
			Action:   "make at least three delivery attempts before declaring failure",
			Evidence: fmt.Sprintf("soft-bounced emails recovered after %.1f attempts on average", o.SoftAvgAttempts),
		})
	}
	return out
}

// receiverESPRules: blocklist collateral.
func receiverESPRules(ps *analysis.PartialSet, cfg Config) []Advisory {
	var out []Advisory
	f := ps.BlocklistFigure()
	if f.NormalShare > cfg.BlocklistCollateralWarn {
		out = append(out, Advisory{
			Audience: ReceiverESP, Severity: Critical,
			Subject:  "DNSBL collateral damage",
			Action:   "weigh blocklist verdicts against the host's historical delivery behavior",
			Evidence: fmt.Sprintf("%.1f%% of blocklist-rejected emails were flagged Normal by the sender ESP", f.NormalShare*100),
		})
	}
	return out
}

// domainManagerRules: auth and MX episodes.
func domainManagerRules(fig analysis.DurationsFigure, cfg Config) []Advisory {
	var out []Advisory
	if fig.AuthDKIMSPF.Entities > 0 {
		mean := fig.AuthDKIMSPF.MeanDays()
		sev := Warning
		if mean > cfg.AuthEpisodeDaysCrit {
			sev = Critical
		}
		out = append(out, Advisory{
			Audience: DomainManager, Severity: sev,
			Subject: "DKIM/SPF records",
			Action:  "monitor authentication records continuously; bulk-sender mandates (Gmail/Yahoo 2024) reject on failure",
			Evidence: fmt.Sprintf("%d sender domains had auth episodes; mean fix time %.1f days, %d never fixed",
				fig.AuthDKIMSPF.Entities, mean, fig.AuthDKIMSPF.AlwaysBroken),
		})
	}
	if fig.MXRecords.Entities > 0 {
		slow := int(float64(len(fig.MXRecords.Durations)) * fig.MXRecords.ShareAtLeast(7))
		if slow > 0 {
			out = append(out, Advisory{
				Audience: DomainManager, Severity: Warning,
				Subject:  "MX records",
				Action:   "alert on resolution failures of your own MX records",
				Evidence: fmt.Sprintf("%d MX-error episodes lasted over a week", slow),
			})
		}
	}
	return out
}

// userRules: full mailboxes, inactive accounts, typo'd contacts.
func userRules(det *analysis.Detections, fig analysis.DurationsFigure, cfg Config) []Advisory {
	var out []Advisory
	if n := fig.MailboxFull.Entities; n > 0 {
		longShare := fig.MailboxFull.ShareAtLeast(cfg.FullMailboxDaysWarn)
		out = append(out, Advisory{
			Audience: EmailUser, Severity: Warning,
			Subject: "full mailboxes",
			Action:  "remind users out-of-band (e.g. SMS) to clean up over-quota mailboxes",
			Evidence: fmt.Sprintf("%d mailboxes hit quota; %.0f%% of recoveries took ≥%.0f days (%d never recovered)",
				n, longShare*100, cfg.FullMailboxDaysWarn, fig.MailboxFull.AlwaysBroken),
		})
	}
	if n := len(det.InactiveAddrs); n > 0 {
		out = append(out, Advisory{
			Audience: EmailUser, Severity: Info,
			Subject:  "inactive accounts",
			Action:   "reactivate or properly deactivate unused accounts; providers should recycle them",
			Evidence: fmt.Sprintf("%d recipient addresses bounced as inactive", n),
		})
	}
	if n := len(det.UsernameTypos); n > 0 {
		out = append(out, Advisory{
			Audience: EmailUser, Severity: Warning,
			Subject:  "typo'd contacts",
			Action:   "notify the senders of verified typo'd recipients (the paper's 672-user notification)",
			Evidence: fmt.Sprintf("%d recipient addresses verified as typos of working contacts", n),
		})
	}
	return out
}

// squattingRules: protective registration.
func squattingRules(sq *squat.Result, cfg Config) []Advisory {
	var out []Advisory
	if sq.VulnerableCount > 0 {
		out = append(out, Advisory{
			Audience: DomainManager, Severity: Critical,
			Subject: "vulnerable domains",
			Action:  "protectively register the most-mailed registrable domains (the paper registered 30)",
			Evidence: fmt.Sprintf("%d registrable domains received %d emails from %d senders",
				sq.VulnerableCount, sq.DomainEmails, sq.DomainSenders),
		})
	}
	if sq.RegistrantChanged > 0 {
		out = append(out, Advisory{
			Audience: DomainManager, Severity: Critical,
			Subject:  "re-registered domains",
			Action:   "audit mail still flowing to domains re-registered by new owners",
			Evidence: fmt.Sprintf("%d previously-vulnerable domains now belong to a different registrant", sq.RegistrantChanged),
		})
	}
	if sq.RegistrableCount > 0 {
		out = append(out, Advisory{
			Audience: ReceiverESP, Severity: Warning,
			Subject: "recyclable usernames",
			Action:  "tighten username re-registration for addresses still receiving mail",
			Evidence: fmt.Sprintf("%d of %d probed non-existent usernames are registrable; %d previously received mail",
				sq.RegistrableCount, sq.ProbedUsernames, sq.PastWorking),
		})
	}
	return out
}

// ProtectivePlan selects the top-n vulnerable domains for protective
// registration, the paper's Section-5.2 intervention ("we registered 30
// domain names with the highest number of email receipts").
func ProtectivePlan(sq *squat.Result, n int) []squat.DomainFinding {
	plan := append([]squat.DomainFinding(nil), sq.VulnerableDomains...)
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].Emails > plan[j].Emails })
	if n < len(plan) {
		plan = plan[:n]
	}
	return plan
}

// Notification is one scheduled risk-notification email (the paper's
// protective outreach: "we send emails at a rate of one per minute and
// only send one email per user").
type Notification struct {
	To      string
	Subject string
	SendAt  time.Time
}

// NotificationPlan schedules one notification per distinct sender that
// mailed a vulnerable domain or username, rate-limited to one per
// minute starting at start.
func NotificationPlan(a *analysis.Analysis, sq *squat.Result, start time.Time) []Notification {
	vulnDomains := map[string]bool{}
	for _, f := range sq.VulnerableDomains {
		vulnDomains[f.Domain] = true
	}
	vulnUsers := map[string]bool{}
	for _, f := range sq.VulnerableUsernames {
		vulnUsers[f.Address] = true
	}
	seen := map[string]bool{}
	var order []string
	reason := map[string]string{}
	for i := 0; i < a.Records.Len(); i++ {
		rec, to := a.Records.At(i), a.Classified[i].ToDomain
		var subj string
		switch {
		case vulnDomains[to]:
			subj = "the domain " + to + " you email is registrable by squatters"
		case vulnUsers[rec.To]:
			subj = "the address " + rec.To + " you email is registrable by squatters"
		default:
			continue
		}
		if !seen[rec.From] {
			seen[rec.From] = true
			order = append(order, rec.From)
			reason[rec.From] = subj
		}
	}
	sort.Strings(order)
	out := make([]Notification, len(order))
	for i, sender := range order {
		out[i] = Notification{
			To:      sender,
			Subject: reason[sender],
			SendAt:  start.Add(time.Duration(i) * time.Minute),
		}
	}
	return out
}
