package bounce

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/advise"
	"repro/internal/analysis"
	"repro/internal/ndr"
	"repro/internal/report"
	"repro/internal/squat"
)

// sectionSource is the data a report section draws on — satisfied by
// both *analysis.Analysis (single-pass corpus) and *analysis.PartialSet
// (merged shard aggregates). Every section except squat and advice
// renders identically from either.
type sectionSource interface {
	Overview() analysis.Overview
	NoEnhancedCodeShare() float64
	PipelineSummary() analysis.PipelineSummary
	TypeDistribution() map[ndr.Type]int
	RootCauses(*analysis.Detections) analysis.RootCauseTable
	TopDomains(int) []analysis.DomainStats
	TopASes(int) []analysis.ASStats
	CountryBounces(int) []analysis.CountryStats
	AmbiguousTemplates() []analysis.AmbiguousTemplate
	MTACountryDistribution() []analysis.MTACountry
	Timeline() analysis.Timeline
	BlocklistFigure() analysis.BlocklistFigure
	InfraMatrix(int, int) analysis.InfraMatrix
	LatencyByCountry(int) analysis.LatencyStats
	STARTTLS() analysis.STARTTLSStats
	FilterDisagreement() analysis.FilterDisagreement
	BlocklistRecovery() analysis.BlocklistRecovery
}

// renderSection writes one section from any source. total is the
// record count (scales the representativeness threshold); det resolves
// the entity detections and dur Figure 7 on top of them, and only the
// sections that print them call them.
func renderSection(w io.Writer, src sectionSource, det func() *analysis.Detections, dur func() analysis.DurationsFigure, total int, sec Section) error {
	threshold := countryThreshold(total)
	switch sec {
	case SecOverview:
		o := src.Overview()
		report.Overview(w, o)
		report.EnhancedCodeStat(w, src.NoEnhancedCodeShare())
	case SecPipeline:
		pipe := src.PipelineSummary()
		report.PipelineStats(w, pipe.Templates, pipe.Labeled, pipe.Coverage())
	case SecTable1:
		o := src.Overview()
		report.Table1(w, src.TypeDistribution(), o.Bounced()-o.AmbiguousBounced)
	case SecTable2:
		report.Table2(w, src.RootCauses(det()))
	case SecTable3:
		report.Table3(w, src.TopDomains(10))
	case SecTable4:
		report.Table4(w, src.TopASes(10))
	case SecTable5:
		report.Table5(w, src.CountryBounces(threshold), 10)
	case SecTable6:
		o := src.Overview()
		report.Table6(w, src.AmbiguousTemplates(), o.AmbiguousBounced)
	case SecFig4:
		report.Fig4(w, src.MTACountryDistribution(), 15)
	case SecFig5:
		report.Fig5(w, src.Timeline())
	case SecFig6:
		report.Fig6(w, src.BlocklistFigure())
	case SecFig7:
		report.Fig7(w, dur())
	case SecFig8:
		report.Fig8(w, src.InfraMatrix(threshold, 20))
	case SecFig10:
		report.Fig10(w, src.LatencyByCountry(threshold), 10)
	case SecSTARTTLS:
		report.STARTTLS(w, src.STARTTLS())
	case SecAttacker:
		report.Attackers(w, det())
	case SecTypos:
		report.Typos(w, det())
	case SecFilters:
		report.Filters(w, src.FilterDisagreement(), src.BlocklistRecovery())
	default:
		return refuse(sec)
	}
	return nil
}

// refuse is the error for a section renderSection has no case for:
// squat and advice, which need the full corpus, or no section at all.
func refuse(sec Section) error {
	if sec == SecSquat || sec == SecAdvice {
		return fmt.Errorf("bounce: section %q needs the full corpus (not available from partial aggregates)", sec)
	}
	return fmt.Errorf("bounce: unknown section %q", sec)
}

// CheckSections returns the error WriteReport would end with for the
// first of sections that is not among allowed (AllSections for a
// Study, PartialSections for a PartialStudy), so a server can refuse a
// misspelt request before it builds what the report is rendered from.
func CheckSections(sections, allowed []Section) error {
	for _, sec := range sections {
		if !slices.Contains(allowed, sec) {
			return refuse(sec)
		}
	}
	return nil
}

// writeSection dispatches one report section. The squat scan and the
// advisory engine walk the raw corpus, so they stay Study-only; every
// other section renders through the shared partial-aggregate path.
func (s *Study) writeSection(w io.Writer, sec Section) error {
	switch sec {
	case SecSquat:
		report.Squat(w, s.Squat(squat.DefaultConfig()))
	case SecAdvice:
		sq := s.Squat(squat.DefaultConfig())
		report.Advisories(w, advise.Run(s.Analysis, s.detections(), s.durations(), sq, advise.DefaultConfig()))
	default:
		return renderSection(w, s.Analysis, s.detections, s.durations, s.Records.Len(), sec)
	}
	return nil
}

// countryThreshold scales the paper's 1,000-incoming-email
// representativeness cutoff to the corpus size (1,000 per 298M).
func countryThreshold(total int) int {
	t := total / 4000
	if t < 50 {
		t = 50
	}
	return t
}
