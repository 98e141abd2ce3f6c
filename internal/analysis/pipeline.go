// Package analysis implements the paper's measurement methodology over
// Figure-3 delivery records: the Drain+EBRC bounce-reason pipeline
// (Section 3.2), bounce-degree statistics, root-cause attribution
// (Section 4, Table 2), per-domain/AS/country breakdowns (Tables 3-5,
// Appendix A), misconfiguration-duration inference (Figure 7), the
// infrastructure matrix (Figure 8), and delivery-performance statistics
// (Figure 10, Appendix C). It consumes only the dataset records plus
// the external services the paper also used (geolocation, blocklist
// state, the leak corpus, registries) — never the simulator's ground
// truth.
package analysis

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/drain"
	"repro/internal/ebrc"
	"repro/internal/ndr"
)

// PipelineConfig scales the Section-3.2 classification pipeline.
type PipelineConfig struct {
	// TopTemplates is how many of the most frequent Drain templates get
	// "manually" labeled (paper: 200, covering 68.49% of NDRs).
	TopTemplates int
	// SamplesPerType bounds the EBRC training set per type
	// (paper: 4,000).
	SamplesPerType int
	// PredictSample is the per-template sample size for majority-vote
	// prediction of unlabeled templates (paper: 100).
	PredictSample int
	Seed          uint64
}

// DefaultPipelineConfig mirrors the paper's parameters at simulation
// scale.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{TopTemplates: 200, SamplesPerType: 1500, PredictSample: 100, Seed: 7}
}

// Pipeline is the trained bounce-reason classifier stack.
type Pipeline struct {
	Parser     *drain.Parser
	Classifier *ebrc.Classifier

	cfg            PipelineConfig
	groupType      map[int]ndr.Type
	groupAmbiguous map[int]bool
	groupSamples   map[int][]string
	sigLabeled     map[int]bool // groups labeled by signature (not vote)
	manualLabels   int
	manualCoverage float64 // share of NDRs covered by the labeled top templates
	coveredLines   int     // NDR lines covered by the labeled top templates
	totalLines     int     // NDR lines the builder absorbed
	trainSegs      []trainSeg
	// carry is the lineage's EBRC training state, which the next
	// FinishWarm takes over; nil once taken.
	carry *trainCarry
}

// PipelineBuilder accumulates NDR lines one record at a time, so the
// pipeline can train while records stream past instead of requiring a
// materialized slice. Feed every record to Add (order matters: Drain
// template mining is deterministic in line order), then call FinishWarm
// exactly once.
type PipelineBuilder struct {
	p     *Pipeline
	total int
}

// NewPipelineBuilder starts an empty pipeline with cfg (zero
// TopTemplates selects the defaults).
func NewPipelineBuilder(cfg PipelineConfig) *PipelineBuilder {
	if cfg.TopTemplates <= 0 {
		cfg = DefaultPipelineConfig()
	}
	return &PipelineBuilder{p: &Pipeline{
		Parser:         drain.New(drain.DefaultConfig()),
		cfg:            cfg,
		groupType:      make(map[int]ndr.Type),
		groupAmbiguous: make(map[int]bool),
		groupSamples:   make(map[int][]string),
	}}
}

// Add mines templates from the record's NDR lines (the non-2xx
// delivery_result entries, walked in place — rec.NDRs would allocate
// on every record of the ingest hot path).
func (b *PipelineBuilder) Add(rec *dataset.Record) {
	for _, line := range rec.DeliveryResult {
		if !strings.HasPrefix(line, "2") {
			b.AddLine(line)
		}
	}
}

// AddLine mines templates from one raw NDR line.
func (b *PipelineBuilder) AddLine(line string) {
	b.total++
	g := b.p.Parser.Train(line)
	b.p.sampleLine(g.ID, line)
}

// FinishWarm labels the mined templates, trains the EBRC, and returns
// the ready pipeline — the paper's manual labeling of the top
// templates, here against the community template catalog, the EBRC
// trained on their raw lines, and the remaining templates labeled by
// majority vote. It reuses work from prev — a finished pipeline from an
// EARLIER point of the same builder lineage, or nil for none — where
// provably equivalent: the EBRC is kept when the training set did not
// move and otherwise rebuilt from prev's token counts, changed by only
// the samples that came or went (from empty counts, without a prev),
// and majority-vote template predictions carry over when the classifier
// and the group's sample set are unchanged. The counts pass from prev
// to the result, so prev must not be finished against twice. The
// result does not depend on prev; only the cost does. The builder must
// not be reused afterwards (the parser is frozen; further Train calls
// panic).
func (b *PipelineBuilder) FinishWarm(prev *Pipeline) *Pipeline {
	if prev == nil {
		prev = &Pipeline{} // nothing to reuse, but a lineage to start
	}
	p, total, cfg := b.p, b.total, b.p.cfg
	// The pipeline is immutable from here on; freezing the parser makes
	// Match lock-free, which the parallel classification pass needs to
	// scale.
	p.Parser.Freeze()
	p.totalLines = total
	if total == 0 {
		return p
	}

	// 2. "Manually" label the top templates via the catalog signatures.
	groups := p.Parser.Groups()
	p.sigLabeled = make(map[int]bool)
	covered := 0
	for i, g := range groups {
		if i >= cfg.TopTemplates {
			break
		}
		typ, amb, ok := labelBySignature(g.Template())
		if !ok {
			continue
		}
		p.groupType[g.ID] = typ
		p.groupAmbiguous[g.ID] = amb
		p.sigLabeled[g.ID] = true
		p.manualLabels++
		covered += g.Count
	}
	p.coveredLines = covered
	p.manualCoverage = float64(covered) / float64(total)

	// 3. Train the EBRC on raw lines of the labeled templates.
	p.train(prev)
	if p.Classifier == nil {
		return p
	}

	// 4. Predict the remaining templates by majority vote over their
	// sampled raw messages.
	reuse := p.Classifier == prev.Classifier
	for _, g := range groups {
		if _, done := p.groupType[g.ID]; done {
			continue
		}
		lines := p.groupSamples[g.ID]
		if len(lines) == 0 {
			p.groupType[g.ID] = ndr.T16Unknown
			continue
		}
		if reuse && !prev.sigLabeled[g.ID] && !prev.groupAmbiguous[g.ID] {
			// Samples are append-only within one builder lineage, so an
			// unchanged count means unchanged content — the vote over
			// them under the same model cannot move.
			if pt, ok := prev.groupType[g.ID]; ok && len(prev.groupSamples[g.ID]) == len(lines) {
				p.groupType[g.ID] = pt
				continue
			}
		}
		p.groupType[g.ID] = p.Classifier.PredictTemplate(lines)
	}
	return p
}

// Clone deep-copies the builder (Drain tree, samples, labels), so the
// original keeps absorbing new records while the clone is finished for
// a point-in-time snapshot.
func (b *PipelineBuilder) Clone() *PipelineBuilder {
	src := b.p
	p := &Pipeline{
		Parser:         src.Parser.Clone(),
		cfg:            src.cfg,
		groupType:      make(map[int]ndr.Type, len(src.groupType)),
		groupAmbiguous: make(map[int]bool, len(src.groupAmbiguous)),
		groupSamples:   make(map[int][]string, len(src.groupSamples)),
	}
	for id, typ := range src.groupType {
		p.groupType[id] = typ
	}
	for id, amb := range src.groupAmbiguous {
		p.groupAmbiguous[id] = amb
	}
	for id, lines := range src.groupSamples {
		p.groupSamples[id] = append([]string(nil), lines...)
	}
	return &PipelineBuilder{p: p, total: b.total}
}

// sampleLine keeps up to PredictSample raw lines per group (reservoir
// not needed: templates are homogeneous, the first N suffice and keep
// the pipeline deterministic).
func (p *Pipeline) sampleLine(groupID int, line string) {
	if len(p.groupSamples[groupID]) < p.cfg.PredictSample {
		p.groupSamples[groupID] = append(p.groupSamples[groupID], line)
	}
}

// trainSeg is one labeled group's share of the EBRC training set: the
// first n of its sampled lines, as samples of type typ. Samples are
// append-only within a builder lineage, so two pipelines of one
// lineage with equal segments train on equal sets.
type trainSeg struct {
	gid int
	typ ndr.Type
	n   int
}

// trainCarry is what a lineage of warm-finished pipelines carries of
// its EBRC training: the training set of the last classifier, as token
// counts. Only one pipeline of a lineage holds it at a time, and only
// while it is being finished does anything write it.
type trainCarry struct {
	counts *ebrc.Counts
	segs   []trainSeg // the set counts holds
	ids    []int32    // add's token buffer
}

// add puts sampled lines [lo,hi) of group gid into the counts as
// samples of type typ (k = 1), or takes them out (k = −1). A line's
// tokens get the ids they got when it went in, so only the few lines
// that come or go are tokenised.
func (tc *trainCarry) add(p *Pipeline, gid int, typ ndr.Type, lo, hi, k int) {
	for _, line := range p.groupSamples[gid][lo:hi] {
		tc.ids = tc.counts.TokenIDs(tc.ids[:0], line)
		tc.counts.Add(typ, tc.ids, k)
	}
}

// moveTo changes the counts from the set tc.segs describes to the one
// segs does: per group, the lines that came or went — all of them where
// the group's type changed.
func (tc *trainCarry) moveTo(p *Pipeline, segs []trainSeg) {
	old := make(map[int]trainSeg, len(tc.segs))
	for _, sg := range tc.segs {
		old[sg.gid] = sg
	}
	for _, sg := range segs {
		o, ok := old[sg.gid]
		switch {
		case !ok:
			tc.add(p, sg.gid, sg.typ, 0, sg.n, 1)
		case o.typ != sg.typ:
			tc.add(p, o.gid, o.typ, 0, o.n, -1)
			tc.add(p, sg.gid, sg.typ, 0, sg.n, 1)
		case sg.n > o.n:
			tc.add(p, sg.gid, sg.typ, o.n, sg.n, 1)
		case sg.n < o.n:
			tc.add(p, sg.gid, sg.typ, sg.n, o.n, -1)
		}
		delete(old, sg.gid)
	}
	for _, o := range old {
		tc.add(p, o.gid, o.typ, 0, o.n, -1)
	}
	tc.segs = segs
}

// train builds the EBRC from the training set's segments: it keeps
// prev's classifier when the segments did not move, and otherwise takes
// over prev's counts — or starts them, if prev has none to give — and
// builds it from them. The model equals what ebrc.Train, the reference,
// fits on the same set. The classifier is nil when no labeled template
// has a sampled line.
func (p *Pipeline) train(prev *Pipeline) {
	p.trainSegs = p.trainingSegments()
	tc := prev.carry
	prev.carry = nil
	if tc != nil && slices.Equal(tc.segs, p.trainSegs) {
		// Counts, and so the model, are prev's: the classifier is
		// immutable and can be shared.
		p.Classifier, p.carry = prev.Classifier, tc
		return
	}
	if tc == nil {
		tc = &trainCarry{counts: ebrc.NewCounts()}
	}
	tc.moveTo(p, p.trainSegs)
	p.Classifier, p.carry = tc.counts.Classifier(), tc
}

// trainingSegments lays out the EBRC training set: per type, raw lines
// matched by its labeled non-ambiguous templates, balanced across
// templates. Types come in type order and a type's templates in group
// ID order, so equal pipelines give equal segments — what FinishWarm
// compares to keep a classifier.
func (p *Pipeline) trainingSegments() []trainSeg {
	var ids []int
	var templates [ndr.NumTypes + 1]int // per type
	for gid, typ := range p.groupType {
		if typ < 1 || typ > ndr.NumTypes || p.groupAmbiguous[gid] || len(p.groupSamples[gid]) == 0 {
			continue
		}
		ids = append(ids, gid)
		templates[typ]++
	}
	slices.Sort(ids)
	segs := make([]trainSeg, 0, len(ids))
	for _, typ := range ndr.AllTypes {
		if templates[typ] == 0 {
			continue
		}
		// Balance across the type's templates, like the paper's "for
		// each type, we try to match a similar number of raw NDR
		// messages for each selected template".
		per := max(p.cfg.SamplesPerType/templates[typ], 1)
		for _, gid := range ids {
			if p.groupType[gid] == typ {
				segs = append(segs, trainSeg{gid, typ, min(per, len(p.groupSamples[gid]))})
			}
		}
	}
	return segs
}

// ManualLabelStats reports how many top templates were labeled and the
// share of NDR messages they cover (paper: 200 templates, 68.49%).
func (p *Pipeline) ManualLabelStats() (labeled int, coverage float64) {
	return p.manualLabels, p.manualCoverage
}

// NumTemplates returns the number of mined Drain templates.
func (p *Pipeline) NumTemplates() int { return p.Parser.NumGroups() }

// ClassifyLine labels one NDR line; ambiguous reports whether the line
// matched one of the Table-6 ambiguous templates.
func (p *Pipeline) ClassifyLine(line string) (typ ndr.Type, ambiguous bool) {
	g := p.Parser.Match(line)
	if g == nil {
		if p.Classifier == nil {
			return ndr.T16Unknown, false
		}
		t, _ := p.Classifier.Predict(line)
		return t, false
	}
	if p.groupAmbiguous[g.ID] {
		return ndr.T16Unknown, true
	}
	if t, ok := p.groupType[g.ID]; ok {
		return t, false
	}
	return ndr.T16Unknown, false
}

// catalogSignature extracts the longest run of literal whitespace
// tokens in a catalog template. Drain wildcards whole tokens, so any
// token touching a placeholder (including attached punctuation like
// "[{ip}]") is variable; the signature must align to token boundaries
// to survive in the mined template.
func catalogSignature(text string) string {
	// Mark placeholders, then walk tokens.
	marked := text
	for {
		open := strings.IndexByte(marked, '{')
		if open < 0 {
			break
		}
		end := strings.IndexByte(marked[open:], '}')
		if end < 0 {
			break
		}
		marked = marked[:open] + "\x00" + marked[open+end+1:]
	}
	fields := strings.Fields(marked)
	best, cur := "", ""
	flush := func() {
		if len(cur) > len(best) {
			best = cur
		}
		cur = ""
	}
	for _, f := range fields {
		if strings.ContainsRune(f, '\x00') {
			flush()
			continue
		}
		if cur == "" {
			cur = f
		} else {
			cur += " " + f
		}
	}
	flush()
	return best
}

// signatureIndex is built once over the catalog, longest-signature
// first so the most specific match wins.
var signatureIndex = func() []struct {
	sig  string
	typ  ndr.Type
	amb  bool
	code string
} {
	out := make([]struct {
		sig  string
		typ  ndr.Type
		amb  bool
		code string
	}, 0, len(ndr.Catalog))
	for _, tp := range ndr.Catalog {
		out = append(out, struct {
			sig  string
			typ  ndr.Type
			amb  bool
			code string
		}{catalogSignature(tp.Text), tp.Type, tp.Ambiguous, tp.Text[:3]})
	}
	sort.Slice(out, func(i, j int) bool { return len(out[i].sig) > len(out[j].sig) })
	return out
}()

// labelBySignature labels a Drain template against the catalog — the
// stand-in for expert labeling. Templates matching no known signature
// stay unlabeled (the EBRC predicts them later).
func labelBySignature(template string) (ndr.Type, bool, bool) {
	for _, e := range signatureIndex {
		if len(e.sig) < 12 {
			continue
		}
		if strings.Contains(template, e.sig) {
			return e.typ, e.amb, true
		}
	}
	return ndr.TNone, false, false
}
