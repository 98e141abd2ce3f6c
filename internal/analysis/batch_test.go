package analysis

import (
	"bytes"
	"maps"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// buildShardedPipeline trains the canonical NumStreams-shard stack over
// a record view in arrival order, each shard finished with nothing to
// reuse.
func buildShardedPipeline(view dataset.Records, cfg PipelineConfig) *ShardedPipeline {
	var bs [NumStreams]*PipelineBuilder
	for s := range bs {
		bs[s] = NewPipelineBuilder(cfg)
	}
	for i := 0; i < view.Len(); i++ {
		rec := view.At(i)
		bs[StreamOf(rec)].Add(rec)
	}
	sp := &ShardedPipeline{Shards: make([]*Pipeline, NumStreams)}
	for s := range bs {
		sp.Shards[s] = bs[s].FinishWarm(nil)
	}
	return sp
}

// batchAnalysis is the reference every way of making an Analysis is
// held to: a freshly trained pipeline classifies every record, one by
// one, through ShardedPipeline.ClassifyRecord. It has no carried fold,
// clean index or list of the records that are not clean, so only what
// walks every record may be asked of it: Partials, and the oracles
// below — batchAnswers gathers them.
func batchAnalysis(records []dataset.Record, env *Environment) *Analysis {
	view := dataset.SliceRecords(records)
	sp := buildShardedPipeline(view, DefaultPipelineConfig())
	verdicts := make([]ClassifiedRecord, len(records))
	counts := map[string]int{}
	for i := range records {
		verdicts[i] = sp.ClassifyRecord(&records[i])
		counts[verdicts[i].ToDomain]++
	}
	return assemble(view, verdicts, sp, counts, env)
}

// walkedBouncedPartials is BouncedPartials by the full walk: every
// record through every collector but detect and durations, and those
// two seeded with what the bounced records name, by bouncedFirst.
func walkedBouncedPartials(a *Analysis) *PartialSet {
	ps := NewPartialSet(a.Env)
	ps.part = partBounced
	ps.Counts = maps.Clone(a.counts)
	for i := range a.Classified {
		ps.addCheap(a.Records.At(i), &a.Classified[i])
	}
	dc, uc := newDetectCollector(), newDurationsCollector()
	bouncedFirst(a, func(rec *dataset.Record, c *ClassifiedRecord) {
		dc.addFailed(rec, c)
		uc.addFailed(rec, c)
	}, func(*dataset.Record, *ClassifiedRecord) {})
	ps.detect.Merge(dc) // the same types: cannot fail
	ps.durations.Merge(uc)
	ps.Pipe = a.Pipeline.Summary()
	return ps
}

// answers is what a study asks an Analysis: its verdicts, its rank,
// its round-1 and whole partial sets, its detections and Figure 7, and
// its round-2 set under a scope.
type answers struct {
	verdicts      []ClassifiedRecord
	rank          []dataset.RankEntry
	round1, whole []byte
	det           *Detections
	fig           DurationsFigure
	round2        []byte
}

// productAnswers asks a what a study does.
func productAnswers(t *testing.T, a *Analysis, scope []byte) answers {
	t.Helper()
	det := a.Detect()
	round2, err := a.ScopedPartials(scope)
	if err != nil {
		t.Fatal(err)
	}
	return answers{a.Classified, a.InEmailRank(), a.BouncedPartials().Marshal(), a.Partials().Marshal(),
		det, a.Durations(det), round2.Marshal()}
}

// batchAnswers is productAnswers for batchAnalysis, each by the walk.
func batchAnswers(t *testing.T, a *Analysis, scope []byte) answers {
	t.Helper()
	det, fig := walkedDetect(a)
	return answers{a.Classified, a.InEmailRank(), walkedBouncedPartials(a).Marshal(), a.Partials().Marshal(),
		det, fig, walkedScopedPartials(t, a, scope)}
}

// diff names the first answer got and want differ in, or "".
func (got answers) diff(want answers) string {
	switch {
	case !reflect.DeepEqual(got.verdicts, want.verdicts):
		return "verdicts"
	case !reflect.DeepEqual(got.rank, want.rank):
		return "popularity rank"
	case !bytes.Equal(got.round1, want.round1):
		return "round-1 set"
	case !bytes.Equal(got.whole, want.whole):
		return "partial set"
	case !reflect.DeepEqual(got.det, want.det):
		return "detections"
	case !reflect.DeepEqual(got.fig, want.fig):
		return "Figure 7"
	case !bytes.Equal(got.round2, want.round2):
		return "round-2 set"
	}
	return ""
}

// matchBatch fails t unless a answers what batchAnalysis over records
// does, under a's own scope.
func matchBatch(t *testing.T, when string, a *Analysis, records []dataset.Record, env *Environment) {
	t.Helper()
	scope, err := a.BouncedPartials().MarshalScope()
	if err != nil {
		t.Fatal(err)
	}
	if d := productAnswers(t, a, scope).diff(batchAnswers(t, batchAnalysis(records, env), scope)); d != "" {
		t.Fatalf("%s: %s differ from the batch reference's", when, d)
	}
}
