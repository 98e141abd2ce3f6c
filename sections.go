package bounce

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/advise"
	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/squat"
)

// renderSection writes one section from a partial set: a node's own
// round-1 set (Study) or a coordinator's merge (PartialStudy), read
// through the one result API. det resolves the entity detections and
// dur Figure 7 on top of them, and only the sections that print them
// call them. The set's record count scales the representativeness
// threshold.
func renderSection(w io.Writer, ps *analysis.PartialSet, det func() *analysis.Detections, dur func() analysis.DurationsFigure, sec Section) error {
	threshold := countryThreshold(ps.Total)
	switch sec {
	case SecOverview:
		o := ps.Overview()
		report.Overview(w, o)
		report.EnhancedCodeStat(w, ps.NoEnhancedCodeShare())
	case SecPipeline:
		pipe := ps.PipelineSummary()
		report.PipelineStats(w, pipe.Templates, pipe.Labeled, pipe.Coverage())
	case SecTable1:
		o := ps.Overview()
		report.Table1(w, ps.TypeDistribution(), o.Bounced()-o.AmbiguousBounced)
	case SecTable2:
		report.Table2(w, ps.RootCauses(det()))
	case SecTable3:
		report.Table3(w, ps.TopDomains(10))
	case SecTable4:
		report.Table4(w, ps.TopASes(10))
	case SecTable5:
		report.Table5(w, ps.CountryBounces(threshold), 10)
	case SecTable6:
		o := ps.Overview()
		report.Table6(w, ps.AmbiguousTemplates(), o.AmbiguousBounced)
	case SecFig4:
		report.Fig4(w, ps.MTACountryDistribution(), 15)
	case SecFig5:
		report.Fig5(w, ps.Timeline())
	case SecFig6:
		report.Fig6(w, ps.BlocklistFigure())
	case SecFig7:
		report.Fig7(w, dur())
	case SecFig8:
		report.Fig8(w, ps.InfraMatrix(threshold, 20))
	case SecFig10:
		report.Fig10(w, ps.LatencyByCountry(threshold), 10)
	case SecSTARTTLS:
		report.STARTTLS(w, ps.STARTTLS())
	case SecAttacker:
		report.Attackers(w, det())
	case SecTypos:
		report.Typos(w, det())
	case SecFilters:
		report.Filters(w, ps.FilterDisagreement(), ps.BlocklistRecovery())
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

// writeSection dispatches one report section. The squat scan walks the
// raw corpus, so squat and advice stay Study-only; every other section
// renders from the study's round-1 set, as a coordinator's renders from
// its merge.
func (s *Study) writeSection(w io.Writer, sec Section) error {
	switch sec {
	case SecSquat:
		report.Squat(w, s.Squat(squat.DefaultConfig()))
	case SecAdvice:
		sq := s.Squat(squat.DefaultConfig())
		report.Advisories(w, advise.Run(s.BouncedPartials(), s.detections(), s.durations(), sq, advise.DefaultConfig()))
	default:
		return renderSection(w, s.BouncedPartials(), s.detections, s.durations, sec)
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
