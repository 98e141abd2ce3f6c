package bounce

import (
	"encoding/json"
	"io"

	"repro/internal/squat"
	"repro/internal/stats"
)

// Summary is the machine-readable digest of a study: the headline
// numbers of every reproduced table and figure, suitable for JSON
// export and regression tracking across seeds or code changes.
type Summary struct {
	Emails        int     `json:"emails"`
	NonBouncedPct float64 `json:"non_bounced_pct"`
	SoftPct       float64 `json:"soft_bounced_pct"`
	HardPct       float64 `json:"hard_bounced_pct"`
	SoftAttempts  float64 `json:"soft_avg_attempts"`
	AmbiguousPct  float64 `json:"ambiguous_pct_of_bounced"`
	NoEnhCodePct  float64 `json:"ndr_without_enhanced_code_pct"`

	DrainTemplates int     `json:"drain_templates"`
	LabeledTop     int     `json:"labeled_templates"`
	LabelCoverage  float64 `json:"label_coverage_pct"`

	// TypeSharePct maps T1..T16 to its share of bounced emails.
	TypeSharePct map[string]float64 `json:"type_share_pct"`

	TopDomains []DomainSummary `json:"top_domains"`
	TopASes    []ASSummary     `json:"top_ases"`

	BlocklistAvgListed   float64 `json:"blocklist_avg_listed_proxies"`
	BlocklistNormalPct   float64 `json:"blocklist_normal_share_pct"`
	BlocklistRecoveryPct float64 `json:"blocklist_recovery_pct"`

	AuthFixMeanDays    float64 `json:"auth_fix_mean_days"`
	MXFixMedianDays    float64 `json:"mx_fix_median_days"`
	FullFixMedianDays  float64 `json:"mailbox_full_fix_median_days"`
	GlobalMedianLatS   float64 `json:"global_median_latency_s"`
	STARTTLSTop100Pct  float64 `json:"starttls_top100_mandate_pct"`
	FilterSenderDisPct float64 `json:"filter_sender_disagree_pct"`
	FilterRcvrDisPct   float64 `json:"filter_receiver_disagree_pct"`

	GuessHitRatePct float64 `json:"guess_hit_rate_pct"`
	BulkHardPct     float64 `json:"bulk_spam_hard_pct"`

	UsernameTypos int `json:"verified_username_typos"`
	DomainTypos   int `json:"matched_domain_typos"`

	VulnerableDomains    int     `json:"vulnerable_domains"`
	VulnerableUsernames  int     `json:"vulnerable_usernames"`
	UsernameVulnShare    float64 `json:"username_registrable_pct"`
	SquatExposedSenders  int     `json:"squat_exposed_senders"`
	SquatExposedEmails   int     `json:"squat_exposed_emails"`
	ReRegisteredAtAudit  int     `json:"reregistered_at_audit"`
	RegistrantChangedNum int     `json:"registrant_changed"`
}

// DomainSummary is one Table-3 row in the digest.
type DomainSummary struct {
	Domain  string  `json:"domain"`
	Emails  int     `json:"emails"`
	HardPct float64 `json:"hard_pct"`
	SoftPct float64 `json:"soft_pct"`
}

// ASSummary is one Table-4 row in the digest.
type ASSummary struct {
	ASN     int     `json:"asn"`
	Org     string  `json:"org"`
	Emails  int     `json:"emails"`
	HardPct float64 `json:"hard_pct"`
	SoftPct float64 `json:"soft_pct"`
}

// Summary computes the digest from the study's round-1 set, its
// detections and Figure 7 (running the squat scan as part of it).
func (s *Study) Summary() Summary {
	ps := s.BouncedPartials()
	o := ps.Overview()
	out := Summary{
		Emails:        o.Total,
		NonBouncedPct: stats.Pct(o.NonBounced, o.Total),
		SoftPct:       stats.Pct(o.SoftBounced, o.Total),
		HardPct:       stats.Pct(o.HardBounced, o.Total),
		SoftAttempts:  o.SoftAvgAttempts,
		AmbiguousPct:  stats.Pct(o.AmbiguousBounced, o.Bounced()),
		NoEnhCodePct:  ps.NoEnhancedCodeShare() * 100,
		TypeSharePct:  map[string]float64{},
	}
	pipe := ps.PipelineSummary()
	out.DrainTemplates = pipe.Templates
	out.LabeledTop = pipe.Labeled
	out.LabelCoverage = pipe.Coverage() * 100

	bounced := o.Bounced() - o.AmbiguousBounced
	for typ, n := range ps.TypeDistribution() {
		out.TypeSharePct[typ.String()] = stats.Pct(n, bounced)
	}
	for _, d := range ps.TopDomains(10) {
		out.TopDomains = append(out.TopDomains, DomainSummary{
			Domain: d.Domain, Emails: d.Emails, HardPct: d.HardPct(), SoftPct: d.SoftPct(),
		})
	}
	for _, as := range ps.TopASes(10) {
		out.TopASes = append(out.TopASes, ASSummary{
			ASN: as.ASN, Org: as.Org, Emails: as.Emails, HardPct: as.HardPct(), SoftPct: as.SoftPct(),
		})
	}

	bl := ps.BlocklistFigure()
	out.BlocklistAvgListed = bl.AvgListed
	out.BlocklistNormalPct = bl.NormalShare * 100
	out.BlocklistRecoveryPct = ps.BlocklistRecovery().RecoveryShare() * 100

	dur := s.durations()
	out.AuthFixMeanDays = dur.AuthDKIMSPF.MeanDays()
	out.MXFixMedianDays = dur.MXRecords.MedianDays()
	out.FullFixMedianDays = dur.MailboxFull.MedianDays()

	lat := ps.LatencyByCountry(1)
	out.GlobalMedianLatS = lat.GlobalMedianMS / 1000
	out.STARTTLSTop100Pct = ps.STARTTLS().Top100Share * 100

	fd := ps.FilterDisagreement()
	out.FilterSenderDisPct = fd.SenderDisagreeShare() * 100
	out.FilterRcvrDisPct = fd.ReceiverDisagreeShare() * 100

	det := s.detections()
	out.GuessHitRatePct = stats.Pct(det.GuessHits, det.GuessTargets)
	out.BulkHardPct = stats.Pct(det.BulkHard, det.BulkEmails)
	out.UsernameTypos = len(det.UsernameTypos)
	out.DomainTypos = len(det.DomainTypos)

	sq := s.Squat(squat.DefaultConfig())
	out.VulnerableDomains = sq.VulnerableCount
	out.VulnerableUsernames = sq.RegistrableCount
	out.UsernameVulnShare = stats.Pct(sq.RegistrableCount, sq.ProbedUsernames)
	out.SquatExposedSenders = sq.DomainSenders
	out.SquatExposedEmails = sq.DomainEmails
	out.ReRegisteredAtAudit = sq.ReRegistered
	out.RegistrantChangedNum = sq.RegistrantChanged
	return out
}

// WriteJSON emits the summary as indented JSON.
func (sm Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sm)
}

// PaperTargets returns the published values for the fields of Summary
// that have direct paper anchors, keyed by JSON field name — used by
// regression tests and the -json consumers to compute deltas.
func PaperTargets() map[string]float64 {
	return map[string]float64{
		"non_bounced_pct":               87.07,
		"soft_bounced_pct":              4.82,
		"hard_bounced_pct":              8.11,
		"soft_avg_attempts":             3,
		"ndr_without_enhanced_code_pct": 28.79,
		"blocklist_normal_share_pct":    78.06,
		"blocklist_recovery_pct":        80.71,
		"auth_fix_mean_days":            12,
		"mailbox_full_fix_median_days":  86,
		"global_median_latency_s":       14.03,
		"starttls_top100_mandate_pct":   38,
		"filter_sender_disagree_pct":    46.49,
		"filter_receiver_disagree_pct":  39.46,
		"guess_hit_rate_pct":            0.91,
		"bulk_spam_hard_pct":            70.12,
	}
}
