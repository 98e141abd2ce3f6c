package analysis

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// TestClassifyCtxMatchesClassifyRecord pins the zero-alloc batch
// classifier to the per-record path verdict for verdict — the
// byte-identity every differential test downstream depends on.
func TestClassifyCtxMatchesClassifyRecord(t *testing.T) {
	records := testCorpus()
	view := dataset.SliceRecords(records)
	sp := buildShardedPipeline(view, DefaultPipelineConfig())
	cx := sp.NewClassifyCtx()
	for i := range records {
		got := cx.ClassifyRecord(&records[i])
		want := sp.ClassifyRecord(&records[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: ctx verdict %+v, per-record verdict %+v", i, got, want)
		}
	}
}

// TestClassifyCtxVerdictsAreStable: verdict slices handed out earlier
// must not change as the ctx keeps classifying (arena spans are never
// rewritten).
func TestClassifyCtxVerdictsAreStable(t *testing.T) {
	records := testCorpus()
	view := dataset.SliceRecords(records)
	sp := buildShardedPipeline(view, DefaultPipelineConfig())
	cx := sp.NewClassifyCtx()
	first := cx.ClassifyRecord(&records[0])
	want := sp.ClassifyRecord(&records[0])
	for i := range records {
		cx.ClassifyRecord(&records[i])
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("early verdict mutated by later classifications: %+v want %+v", first, want)
	}
}

func BenchmarkClassifyCtx(b *testing.B) {
	records := testCorpus()
	view := dataset.SliceRecords(records)
	sp := buildShardedPipeline(view, DefaultPipelineConfig())
	cx := sp.NewClassifyCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx.ClassifyRecord(&records[i%len(records)])
	}
}

func BenchmarkClassifyRecord(b *testing.B) {
	records := testCorpus()
	view := dataset.SliceRecords(records)
	sp := buildShardedPipeline(view, DefaultPipelineConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.ClassifyRecord(&records[i%len(records)])
	}
}

// TestClassifyCtxCleanVerdictsShareNoArena: a record whose every line
// is a 2xx gets its TNones from the one shared slice, not from the
// ctx's arena, so a snapshot that carries its verdict keeps nothing of
// the snapshot that made it; it is full-capacity like an arena span.
func TestClassifyCtxCleanVerdictsShareNoArena(t *testing.T) {
	records := testCorpus()
	sp := buildShardedPipeline(dataset.SliceRecords(records), DefaultPipelineConfig())
	cx := sp.NewClassifyCtx()
	seen := 0
	for i := range records {
		c := cx.ClassifyRecord(&records[i])
		if !clean(&records[i]) {
			continue
		}
		seen++
		if &c.AttemptTypes[0] != &noneTypes[0] || cap(c.AttemptTypes) != len(c.AttemptTypes) {
			t.Fatalf("record %d is clean, but its attempt types are not the shared TNones", i)
		}
		if !reflect.DeepEqual(c, sp.ClassifyRecord(&records[i])) {
			t.Fatalf("record %d: the ctx verdict differs from Pipeline.ClassifyRecord's", i)
		}
	}
	if seen == 0 {
		t.Fatal("degenerate corpus: no clean record")
	}
}
