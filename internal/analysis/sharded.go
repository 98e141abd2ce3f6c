package analysis

import (
	"repro/internal/dataset"
	"repro/internal/ndr"
)

// ShardedPipeline is the classifier stack partitioned across the fixed
// content-hash substreams: shard s is trained on exactly the records
// with StreamOf(rec) == s, in their substream arrival order. Every
// constructor builds NumStreams shards, whose per-substream training
// order is invariant under any order-preserving split of the stream —
// the property that makes multi-node reports byte-identical to a single
// node's.
type ShardedPipeline struct {
	Shards []*Pipeline
}

// For returns the shard pipeline responsible for rec.
func (sp *ShardedPipeline) For(rec *dataset.Record) *Pipeline {
	return sp.Shards[StreamOf(rec)]
}

// ClassifyRecord routes the record to its substream's pipeline.
func (sp *ShardedPipeline) ClassifyRecord(rec *dataset.Record) ClassifiedRecord {
	return sp.For(rec).ClassifyRecord(rec)
}

// ClassifyLine labels one bare NDR line (no record context to route
// by): the first shard whose parser matches the line classifies it,
// falling back to the first shard with a trained EBRC. Deterministic,
// and exact whenever the line's template was mined anywhere.
func (sp *ShardedPipeline) ClassifyLine(line string) (typ ndr.Type, ambiguous bool) {
	for _, p := range sp.Shards {
		if p.Parser.Match(line) != nil {
			return p.ClassifyLine(line)
		}
	}
	for _, p := range sp.Shards {
		if p.Classifier != nil {
			return p.ClassifyLine(line)
		}
	}
	return ndr.T16Unknown, false
}

// NumTemplates returns the number of mined Drain templates across all
// shards.
func (sp *ShardedPipeline) NumTemplates() int {
	n := 0
	for _, p := range sp.Shards {
		n += p.NumTemplates()
	}
	return n
}

// ManualLabelStats aggregates the per-shard labeling stats: total
// labeled templates, and covered NDR lines over total NDR lines.
func (sp *ShardedPipeline) ManualLabelStats() (labeled int, coverage float64) {
	covered, total := 0, 0
	for _, p := range sp.Shards {
		labeled += p.manualLabels
		covered += p.coveredLines
		total += p.totalLines
	}
	if total > 0 {
		coverage = float64(covered) / float64(total)
	}
	return labeled, coverage
}

// AmbiguousTemplates merges the shards' ambiguous templates by template
// text (summing counts) and normalizes the order: count descending,
// template ascending. The same normalization runs on every topology,
// so Table 6 is byte-identical however the corpus was sharded.
func (sp *ShardedPipeline) AmbiguousTemplates() []AmbiguousTemplate {
	byTmpl := map[string]int{}
	for _, p := range sp.Shards {
		for _, g := range p.Parser.Groups() {
			if p.groupAmbiguous[g.ID] {
				byTmpl[g.Template()] += g.Count
			}
		}
	}
	out := make([]AmbiguousTemplate, 0, len(byTmpl))
	for tmpl, n := range byTmpl {
		out = append(out, AmbiguousTemplate{Template: tmpl, Count: n})
	}
	SortRanked(out,
		func(t AmbiguousTemplate) float64 { return float64(t.Count) },
		func(t AmbiguousTemplate) string { return t.Template })
	return out
}

// Summary condenses the stack into the mergeable pipeline aggregate
// shipped inside partial snapshots.
func (sp *ShardedPipeline) Summary() PipelineSummary {
	covered, total := 0, 0
	labeled := 0
	for _, p := range sp.Shards {
		labeled += p.manualLabels
		covered += p.coveredLines
		total += p.totalLines
	}
	return PipelineSummary{
		Templates:    sp.NumTemplates(),
		Labeled:      labeled,
		CoveredLines: covered,
		TotalLines:   total,
		Ambiguous:    sp.AmbiguousTemplates(),
	}
}
