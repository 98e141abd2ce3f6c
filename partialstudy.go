package bounce

import (
	"fmt"
	"io"

	"repro/internal/analysis"
)

// PartialSections lists the sections renderable from merged partial
// aggregates: AllSections minus squat and advice, which walk the raw
// corpus and therefore need a full Study.
var PartialSections = func() []Section {
	out := make([]Section, 0, len(AllSections))
	for _, sec := range AllSections {
		if sec == SecSquat || sec == SecAdvice {
			continue
		}
		out = append(out, sec)
	}
	return out
}()

// PartialStudy renders reports from a merged partial aggregate — the
// coordinator's view of a sharded deployment. Sections render through
// the same dispatcher a Study uses, so the bytes are identical to a
// single node that ingested the full stream.
type PartialStudy struct {
	P   *analysis.PartialSet
	det *analysis.Detections
}

// NewPartialStudy wraps a merged partial set: whole sets merged, or
// round-1 sets completed by their round 2 (analysis.GatherPartials).
func NewPartialStudy(p *analysis.PartialSet) *PartialStudy {
	return &PartialStudy{P: p}
}

// Detections resolves (and caches) the entity detections.
func (s *PartialStudy) Detections() *analysis.Detections {
	if s.det == nil {
		s.det = s.P.Detect()
	}
	return s.det
}

func (s *PartialStudy) durations() analysis.DurationsFigure { return s.P.Durations(s.Detections()) }

// WriteReport renders the requested sections (default PartialSections).
func (s *PartialStudy) WriteReport(w io.Writer, sections []Section) error {
	if len(sections) == 0 {
		sections = PartialSections
	}
	if err := s.P.Renderable(); err != nil {
		return err
	}
	for _, sec := range sections {
		if err := renderSection(w, s.P, s.Detections, s.durations, sec); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Partials condenses the study's classified corpus into its whole
// partial aggregate, once per study — a Study is immutable once built —
// and is safe for concurrent callers, like detections and durations.
func (s *Study) Partials() *analysis.PartialSet {
	s.partialsOnce.Do(func() { s.partials = s.Analysis.Partials() })
	return s.partials
}

// BouncedPartials is the study's round-1 set (Analysis.BouncedPartials),
// folded once per study and safe for concurrent callers. Every table
// and figure the study reports, its Summary and its advice read this
// set, and a node serves it as round 1 of a coordinator's fan-in: a
// shard answering both folds once.
func (s *Study) BouncedPartials() *analysis.PartialSet {
	s.bouncedOnce.Do(func() { s.bounced = s.Analysis.BouncedPartials() })
	return s.bounced
}
