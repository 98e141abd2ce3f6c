package analysis

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/ndr"
)

// PipelineSummary is the mergeable aggregate of a classifier stack:
// enough to reproduce the pipeline rows of the report (template and
// label counts, NDR-line coverage, Table 6) without shipping the
// pipelines themselves. Empty substream pipelines contribute zeroes,
// so summing node summaries equals the single-node summary.
type PipelineSummary struct {
	Templates    int
	Labeled      int
	CoveredLines int
	TotalLines   int
	// Ambiguous is Table 6, already normalized (count desc, template asc).
	Ambiguous []AmbiguousTemplate
}

// Coverage is the share of NDR lines covered by labeled templates.
func (ps PipelineSummary) Coverage() float64 {
	if ps.TotalLines == 0 {
		return 0
	}
	return float64(ps.CoveredLines) / float64(ps.TotalLines)
}

// Merge folds another summary in, re-normalizing Table 6.
func (ps *PipelineSummary) Merge(o PipelineSummary) {
	ps.Templates += o.Templates
	ps.Labeled += o.Labeled
	ps.CoveredLines += o.CoveredLines
	ps.TotalLines += o.TotalLines
	byTmpl := map[string]int{}
	for _, t := range ps.Ambiguous {
		byTmpl[t.Template] += t.Count
	}
	for _, t := range o.Ambiguous {
		byTmpl[t.Template] += t.Count
	}
	merged := make([]AmbiguousTemplate, 0, len(byTmpl))
	for tmpl, n := range byTmpl {
		merged = append(merged, AmbiguousTemplate{Template: tmpl, Count: n})
	}
	SortRanked(merged,
		func(t AmbiguousTemplate) float64 { return float64(t.Count) },
		func(t AmbiguousTemplate) string { return t.Template })
	ps.Ambiguous = merged
}

func (e *enc) pipeSummary(ps PipelineSummary) {
	e.intv(ps.Templates)
	e.intv(ps.Labeled)
	e.intv(ps.CoveredLines)
	e.intv(ps.TotalLines)
	e.u64(uint64(len(ps.Ambiguous)))
	for _, t := range ps.Ambiguous {
		e.str(t.Template)
		e.intv(t.Count)
	}
}

func (d *dec) pipeSummary() PipelineSummary {
	var ps PipelineSummary
	ps.Templates = d.intv()
	ps.Labeled = d.intv()
	ps.CoveredLines = d.intv()
	ps.TotalLines = d.intv()
	n := d.count()
	for i := 0; i < n; i++ {
		t := AmbiguousTemplate{Template: d.str()}
		t.Count = d.intv()
		ps.Ambiguous = append(ps.Ambiguous, t)
	}
	return ps
}

// namedPartial pairs a collector with its stable wire name.
type namedPartial struct {
	name string
	c    PartialCollector
}

// part says which fold a set holds. It travels in the envelope, and
// Merge joins only sets of one part: a round-1 set merged into a whole
// one, or rendered on its own, would answer wrongly without a sound.
type part uint8

const (
	partWhole    part = iota // Analysis.Partials: every record through every rule
	partBounced              // round 1: Analysis.BouncedPartials
	partScoped               // round 2: Analysis.ScopedPartials
	partComplete             // merged round 1 after Complete: renders, merges no further
)

func (p part) String() string {
	switch p {
	case partWhole:
		return "whole"
	case partBounced:
		return "round-1"
	case partScoped:
		return "round-2"
	case partComplete:
		return "completed"
	}
	return fmt.Sprintf("part %d", uint8(p))
}

// PartialSet is the one result API: every collector's mergeable state
// plus the popularity counts and pipeline summary the result methods
// need. A node reads its tables and figures from its own round-1 set
// (BouncedPartials); a coordinator reads them from the merge. Merging K
// whole sets (any order, any grouping) — or K round-1 sets completed by
// their K round-2 sets — answers byte for byte what one node's set
// over the whole corpus answers.
type PartialSet struct {
	// Total is the number of records folded in.
	Total int
	// Counts is the receiver-domain popularity histogram (InEmailRank
	// input).
	Counts map[string]int
	// Pipe summarizes the classifier stack that produced the verdicts.
	Pipe PipelineSummary
	// Env is the local environment used by result methods; it is not
	// part of the wire state.
	Env *Environment

	overview  overviewCollector
	typedist  *typeDistCollector
	domain    *domainCollector
	as        *asCollector
	country   *countryCollector
	timeline  *timelineCollector
	blocked   blockedCollector
	starttls  *starttlsCollector
	filter    filterCollector
	recovery  recoveryCollector
	enhanced  enhancedCollector
	mta       *mtaCollector
	infra     *infraCollector
	latency   *latencyCollector
	durations *durationsCollector
	detect    *detectCollector
	cause     *causeCollector

	part part
	cols []namedPartial
	// facts and labels are what round 1 folds whole: every collector but
	// detect and durations, whose rules a bounce on another shard can
	// change. facts read only the record and what setFacts derives from
	// it, which is the same under every pipeline; labels read its types.
	facts, labels []PartialCollector
	rankOnce      sync.Once
	rank          []dataset.RankEntry
}

// NewPartialSet returns an empty partial aggregate bound to env (which
// may be nil for dataset-only analyses).
func NewPartialSet(env *Environment) *PartialSet {
	var db *geo.DB
	var proxyRegion map[string]string
	if env != nil {
		db = env.Geo
		proxyRegion = env.ProxyRegion
	}
	ps := &PartialSet{
		Counts:    map[string]int{},
		Env:       env,
		typedist:  newTypeDistCollector(),
		domain:    newDomainCollector(),
		as:        newASCollector(db),
		country:   newCountryCollector(db),
		timeline:  newTimelineCollector(),
		starttls:  newSTARTTLSCollector(),
		mta:       newMTACollector(db),
		infra:     newInfraCollector(db, proxyRegion),
		latency:   newLatencyCollector(db),
		durations: newDurationsCollector(),
		detect:    newDetectCollector(),
		cause:     newCauseCollector(),
	}
	// The wire order. Append-only: adding a collector appends a name
	// here and bumps partialFormatVersion.
	ps.cols = []namedPartial{
		{"overview", &ps.overview},
		{"typedist", ps.typedist},
		{"domain", ps.domain},
		{"as", ps.as},
		{"country", ps.country},
		{"timeline", ps.timeline},
		{"blocked", &ps.blocked},
		{"starttls", ps.starttls},
		{"filter", &ps.filter},
		{"recovery", &ps.recovery},
		{"enhanced", &ps.enhanced},
		{"mta", ps.mta},
		{"infra", ps.infra},
		{"latency", ps.latency},
		{"durations", ps.durations},
		{"detect", ps.detect},
		{"cause", ps.cause},
	}
	for _, np := range ps.cols {
		switch np.name {
		case "detect", "durations":
		case "domain", "as", "timeline", "enhanced", "mta", "latency":
			ps.facts = append(ps.facts, np.c)
		default:
			ps.labels = append(ps.labels, np.c)
		}
	}
	return ps
}

// Add folds one classified record in. PartialSet implements Collector,
// so it plugs into visit directly. Counts is not counted here: the
// constructors seed it from the Analysis, which has it already. A set
// is folded before it is read: InEmailRank does not see records added
// after its first call.
func (ps *PartialSet) Add(rec *dataset.Record, c *ClassifiedRecord) {
	ps.addCheap(rec, c)
	ps.detect.Add(rec, c)
	ps.durations.Add(rec, c)
}

// addCheap folds a record into everything but detect and durations,
// whose rules a bounce on another shard can change.
func (ps *PartialSet) addCheap(rec *dataset.Record, c *ClassifiedRecord) {
	ps.addFacts(rec, c)
	ps.addLabels(rec, c)
}

// addFacts counts the record and folds it into the collectors that read
// nothing a pipeline decides.
func (ps *PartialSet) addFacts(rec *dataset.Record, c *ClassifiedRecord) {
	ps.Total++
	for _, col := range ps.facts {
		col.Add(rec, c)
	}
}

// addLabels folds the record into the cheap collectors that read its
// types.
func (ps *PartialSet) addLabels(rec *dataset.Record, c *ClassifiedRecord) {
	for _, col := range ps.labels {
		col.Add(rec, c)
	}
}

// Merge folds another shard's aggregate of the same part into the
// receiver. Commutative and associative over set states.
func (ps *PartialSet) Merge(o *PartialSet) error {
	if ps.part != o.part || ps.part == partComplete {
		return fmt.Errorf("analysis: merge a %s partial set with a %s one", o.part, ps.part)
	}
	ps.Total += o.Total
	for dom, n := range o.Counts {
		ps.Counts[dom] += n
	}
	ps.Pipe.Merge(o.Pipe)
	for i := range ps.cols {
		if err := ps.cols[i].c.Merge(o.cols[i].c); err != nil {
			return err
		}
	}
	ps.rankOnce, ps.rank = sync.Once{}, nil
	return nil
}

// Wire envelope: magic, one-byte format version, the part, then the
// named, individually versioned and length-prefixed collector blobs.
// The format version covers the envelope and the collector roster;
// each collector additionally versions its own blob. Version 2 added
// the part: a version-1 reader taking a round-1 set for a whole one
// would merge it into a wrong report, so each refuses the other.
const (
	partialMagic         = "BNCP"
	partialFormatVersion = 2
)

// Marshal encodes the set with the stable codec: equal states encode
// to equal bytes.
func (ps *PartialSet) Marshal() []byte {
	var e enc
	e.buf = append(e.buf, partialMagic...)
	e.version(partialFormatVersion)
	e.version(byte(ps.part))
	e.intv(ps.Total)
	e.strIntMap(ps.Counts)
	e.pipeSummary(ps.Pipe)
	e.u64(uint64(len(ps.cols)))
	for _, np := range ps.cols {
		e.str(np.name)
		e.bytes(np.c.MarshalPartial())
	}
	return e.buf
}

// UnmarshalPartialSet decodes a snapshot produced by Marshal, binding
// the result to env. Decoding is strict: a version, roster, or name
// mismatch is an error rather than a silent partial merge.
func UnmarshalPartialSet(b []byte, env *Environment) (*PartialSet, error) {
	if len(b) < len(partialMagic) || string(b[:len(partialMagic)]) != partialMagic {
		return nil, fmt.Errorf("analysis: not a partial snapshot")
	}
	d := dec{b: b[len(partialMagic):]}
	d.checkVersion("partialset", partialFormatVersion)
	ps := NewPartialSet(env)
	ps.part = part(d.u8())
	if d.err == nil && ps.part > partComplete {
		return nil, fmt.Errorf("analysis: partial snapshot holds unknown %v", ps.part)
	}
	ps.Total = d.intv()
	ps.Counts = d.strIntMap()
	ps.Pipe = d.pipeSummary()
	n := d.count()
	if d.err != nil {
		return nil, d.err
	}
	if n != len(ps.cols) {
		return nil, fmt.Errorf("analysis: partial snapshot has %d collectors, want %d", n, len(ps.cols))
	}
	for i := 0; i < n; i++ {
		name := d.str()
		blob := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		if name != ps.cols[i].name {
			return nil, fmt.Errorf("analysis: partial snapshot collector %q, want %q", name, ps.cols[i].name)
		}
		if err := ps.cols[i].c.UnmarshalPartial(blob); err != nil {
			return nil, err
		}
	}
	return ps, d.err
}

// Partials condenses the classified corpus into its whole partial
// aggregate: every record through every rule, the unscoped detect and
// Figure-7 folds among them. It is the reference the two rounds below
// are held to; a cluster gathers those.
func (a *Analysis) Partials() *PartialSet {
	ps := NewPartialSet(a.Env)
	ps.Counts = maps.Clone(a.counts)
	a.visit(ps)
	ps.Pipe = a.Pipeline.Summary()
	return ps
}

// BouncedPartials is a shard's round 1 of the two-round fan-in: every
// collector but detect and durations folds every record, and those two
// hold only what the bounced records name (the Analysis's failedFold).
// Merged across shards, their state is the scope.
// It folds only the records that are not clean, and only through what
// reads their types, and merges in the fold its Incremental carried of
// the rest, which it only reads: sets are order-free, so the bytes are
// those of every record's fold.
func (a *Analysis) BouncedPartials() *PartialSet {
	ps := NewPartialSet(a.Env)
	ps.part = partBounced
	ps.Counts = maps.Clone(a.counts)
	for _, i := range a.dirty {
		ps.addLabels(a.Records.At(int(i)), &a.Classified[i])
	}
	ps.Merge(a.carried) // the same part: cannot fail
	dc, uc := a.failedFold()
	ps.detect.Merge(dc) // the same types: cannot fail
	ps.durations.Merge(uc)
	ps.Pipe = a.Pipeline.Summary()
	return ps
}

// Scope wire format: magic, version, whether the recipient sets and
// bulk counts are read, then the merged round-1 detect and durations
// blobs in their own collector codecs.
const (
	scopeMagic   = "BNCS"
	scopeVersion = 1
)

// MarshalScope encodes what round 2 reads: the merged round-1 state of
// detect and durations — what the bounced records of every shard name —
// and whether the receiver's environment has a leak corpus, the one
// case result reads recipient sets and bulk counts. Only a round-1 set
// has a scope.
func (ps *PartialSet) MarshalScope() ([]byte, error) {
	if ps.part != partBounced {
		return nil, fmt.Errorf("analysis: a %s partial set has no scope", ps.part)
	}
	var e enc
	e.buf = append(e.buf, scopeMagic...)
	e.version(scopeVersion)
	e.boolv(ps.Env != nil && ps.Env.Breach != nil)
	e.bytes(ps.detect.MarshalPartial())
	e.bytes(ps.durations.MarshalPartial())
	return e.buf, nil
}

// ScopedPartials is a shard's round 2: detect and durations' scoped
// addRecord over every record — the pass Detect and Durations run after
// their bounced one (scopedFold) — against the scope MarshalScope
// encoded. The set holds only what these records add; the scope stays
// with the coordinator, which sent it.
func (a *Analysis) ScopedPartials(scope []byte) (*PartialSet, error) {
	if len(scope) < len(scopeMagic) || string(scope[:len(scopeMagic)]) != scopeMagic {
		return nil, fmt.Errorf("analysis: not a partial scope")
	}
	d := dec{b: scope[len(scopeMagic):]}
	d.checkVersion("scope", scopeVersion)
	breach := d.boolv()
	detect, durations := d.bytes(), d.bytes()
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("analysis: %d bytes after the partial scope", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	ps := NewPartialSet(a.Env)
	ps.part = partScoped
	dc, uc := ps.detect, ps.durations
	if err := dc.UnmarshalPartial(detect); err != nil {
		return nil, err
	}
	if err := uc.UnmarshalPartial(durations); err != nil {
		return nil, err
	}
	dc.scoped, dc.breach, uc.scoped = true, breach, true
	a.scopedFold(dc, uc)
	dc.dropFailed()
	uc.dropFailed()
	return ps, nil
}

// Complete folds the merged round-2 sets of every shard into the
// receiver, their merged round 1. It then answers what the whole sets'
// merge would, and merges no further: its detect and durations hold
// only what result reads of every shard's records.
func (ps *PartialSet) Complete(scoped *PartialSet) error {
	if ps.part != partBounced || scoped.part != partScoped {
		return fmt.Errorf("analysis: complete a %s partial set with a %s one", ps.part, scoped.part)
	}
	if err := ps.detect.Merge(scoped.detect); err != nil {
		return err
	}
	if err := ps.durations.Merge(scoped.durations); err != nil {
		return err
	}
	ps.part = partComplete
	return nil
}

// Renderable reports why the set cannot answer for a report — a round
// of the fan-in still to be completed — or nil.
func (ps *PartialSet) Renderable() error {
	if ps.part == partBounced || ps.part == partScoped {
		return fmt.Errorf("analysis: a %s partial set is half a fan-in: complete it before rendering", ps.part)
	}
	return nil
}

// GatherPartials runs both rounds of the fan-in over in-process shard
// analyses, every set and the scope through the wire codecs a shard
// node serves, and returns the completed merge bound to env.
func GatherPartials(shards []*Analysis, env *Environment) (*PartialSet, error) {
	blobs := make([][]byte, len(shards))
	for i, a := range shards {
		blobs[i] = a.BouncedPartials().Marshal()
	}
	merged, err := mergeBlobSets(blobs, env)
	if err != nil {
		return nil, err
	}
	scope, err := merged.MarshalScope()
	if err != nil {
		return nil, err
	}
	for i, a := range shards {
		ps, err := a.ScopedPartials(scope)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		blobs[i] = ps.Marshal()
	}
	scoped, err := mergeBlobSets(blobs, env)
	if err != nil {
		return nil, err
	}
	return merged, merged.Complete(scoped)
}

// mergeBlobSets decodes each shard's set, binds it to env and merges
// them in order; an error names the shard by its index.
func mergeBlobSets(blobs [][]byte, env *Environment) (*PartialSet, error) {
	if len(blobs) == 0 {
		return nil, fmt.Errorf("analysis: no partial sets to merge")
	}
	var merged *PartialSet
	for i, b := range blobs {
		ps, err := UnmarshalPartialSet(b, env)
		if err == nil && merged != nil {
			err = merged.Merge(ps)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if merged == nil {
			merged = ps
		}
	}
	return merged, nil
}

// --- Result methods: the one API every table and figure is read
// through, on a node (its own round-1 or whole set) and on a
// coordinator (the merge) alike. Each only reads the set, so one set
// renders from any number of goroutines, and each section's
// precondition on the environment lives here or in its collector.

// InEmailRank returns the receiver-domain popularity list, sorted once
// per set state: the first reader fills it, Merge empties it.
func (ps *PartialSet) InEmailRank() []dataset.RankEntry {
	ps.rankOnce.Do(func() {
		if len(ps.Counts) > 0 {
			ps.rank = dataset.RankFromCounts(ps.Counts)
		}
	})
	return ps.rank
}

// Overview is the Section-4.1 bounce-degree distribution.
func (ps *PartialSet) Overview() Overview { return ps.overview.result() }

// TypeDistribution is Table 1: per-type email counts among bounced,
// non-ambiguous emails (an email may carry several types).
func (ps *PartialSet) TypeDistribution() map[ndr.Type]int { return ps.typedist.counts }

// NoEnhancedCodeShare returns the share of NDR lines lacking an
// RFC 3463 enhanced status code (paper: 28.79%).
func (ps *PartialSet) NoEnhancedCodeShare() float64 { return ps.enhanced.result() }

// AmbiguousTemplates is Table 6: the mined templates flagged ambiguous
// with their message counts, count-descending.
func (ps *PartialSet) AmbiguousTemplates() []AmbiguousTemplate { return ps.Pipe.Ambiguous }

// PipelineSummary returns the carried classifier summary.
func (ps *PartialSet) PipelineSummary() PipelineSummary { return ps.Pipe }

// TopDomains is Table 3: the n most popular receiver domains with
// their bounce ratios.
func (ps *PartialSet) TopDomains(n int) []DomainStats { return ps.domain.result(n) }

// TopASes is Table 4: ASes of receiver MTAs by email volume. It needs
// Env.Geo (without it the collector folds nothing); attempts with no
// receiver IP are skipped.
func (ps *PartialSet) TopASes(n int) []ASStats { return ps.as.result(n) }

// CountryBounces is Table 5: per receiver-MTA country, excluding
// countries below minEmails (the paper's 1,000-email
// representativeness threshold, scaled by the caller). It needs
// Env.Geo, as TopASes does.
func (ps *PartialSet) CountryBounces(minEmails int) []CountryStats {
	return ps.country.result(minEmails)
}

// Timeline is Figure 5.
func (ps *PartialSet) Timeline() Timeline { return ps.timeline.result() }

// BlocklistFigure is Figure 6. It needs Env.Blocklist and Env.ProxyIPs.
func (ps *PartialSet) BlocklistFigure() BlocklistFigure { return ps.blocked.result(ps.Env) }

// InfraMatrix is Figure 8 over receiver countries with at least
// minEmails deliveries, reporting the worst n receiver countries. It
// needs Env.Geo and Env.ProxyRegion.
func (ps *PartialSet) InfraMatrix(minEmails, n int) InfraMatrix {
	if ps.Env == nil || ps.Env.Geo == nil {
		return InfraMatrix{ReceiverTimeoutPct: map[string]float64{}}
	}
	return ps.infra.result(minEmails, n)
}

// LatencyByCountry is Figure 10 over successful deliveries, excluding
// countries below minEmails. It needs Env.Geo.
func (ps *PartialSet) LatencyByCountry(minEmails int) LatencyStats {
	return ps.latency.result(ps.Env, minEmails)
}

// STARTTLS is the Section-4.3.1 TLS-mandate measurement.
func (ps *PartialSet) STARTTLS() STARTTLSStats { return ps.starttls.result(ps.InEmailRank()) }

// FilterDisagreement is the Section-4.2.2 cross-filter comparison.
func (ps *PartialSet) FilterDisagreement() FilterDisagreement { return ps.filter.f }

// BlocklistRecovery is the Section-4.2.2 T5 recovery statistic.
func (ps *PartialSet) BlocklistRecovery() BlocklistRecovery { return ps.recovery.result() }

// MTACountryDistribution is Figure 4: the geographic distribution of
// receiver MTAs (distinct to_ip values), via the Env.Geo lookup the
// paper performed with ip-api. It needs Env.Geo.
func (ps *PartialSet) MTACountryDistribution() []MTACountry {
	if ps.Env == nil || ps.Env.Geo == nil {
		return nil
	}
	return ps.mta.result()
}

// Detect runs the entity detections over the merged state.
func (ps *PartialSet) Detect() *Detections {
	return ps.detect.result(ps.Env, ps.InEmailRank())
}

// RootCauses is Table 2, built on the detections.
func (ps *PartialSet) RootCauses(d *Detections) RootCauseTable {
	return buildRootCauseTable(ps.cause.resolve(d), ps.cause.total)
}

// Durations infers Figure 7.
func (ps *PartialSet) Durations(det *Detections) DurationsFigure {
	return ps.durations.resolve(det)
}
