package analysis

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/ndr"
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

// TestClassifyCtxMemoOverStore is the memo's equivalence test where it
// matters: over a snapshot's own records, whose NDR lines the store
// interned, every verdict equals Pipeline.ClassifyRecord's, and the
// memo answered the repeats — it holds fewer lines than were classified.
func TestClassifyCtxMemoOverStore(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records)
	a := inc.Snapshot(nil)
	cx := a.Pipeline.newMemoCtx()
	lines := 0
	for i := 0; i < a.Records.Len(); i++ {
		rec := a.Records.At(i)
		lines += len(rec.NDRs())
		if got, want := cx.ClassifyRecord(rec), a.Pipeline.ClassifyRecord(rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: memoised verdict %+v, per-record verdict %+v", i, got, want)
		}
	}
	if cx.seen.n == 0 || cx.seen.n >= lines {
		t.Fatalf("memo holds %d lines after %d were classified: repeats were not looked up", cx.seen.n, lines)
	}
}

// TestClassifyCtxMemoKeysSubstream: one line, one copy of it, in two
// records of different substreams whose pipelines label it differently
// — one trained on the corpus, one on nothing — gets each substream's
// verdict, whichever comes first and however often.
func TestClassifyCtxMemoKeysSubstream(t *testing.T) {
	line := renderT(ndr.T8NoSuchUser, "ghost1@ok.com")
	day := clock.StudyStart.Add(10 * time.Hour)
	r1 := rec("a@s.com", "ghost1@ok.com", day, line)
	var r2 dataset.Record
	for i := 0; ; i++ {
		r2 = rec(fmt.Sprintf("b%d@s.com", i), "ghost1@ok.com", day, line)
		if StreamOf(&r2) != StreamOf(&r1) {
			break
		}
	}
	if unsafe.StringData(r1.DeliveryResult[0]) != unsafe.StringData(r2.DeliveryResult[0]) {
		t.Fatal("the two records must share one copy of the line")
	}
	sp := &ShardedPipeline{Shards: make([]*Pipeline, NumStreams)}
	for s := range sp.Shards {
		b := NewPipelineBuilder(DefaultPipelineConfig())
		if s == StreamOf(&r1) {
			records := testCorpus()
			for i := range records {
				b.Add(&records[i])
			}
		}
		sp.Shards[s] = b.FinishWarm(nil)
	}
	w1, w2 := sp.ClassifyRecord(&r1), sp.ClassifyRecord(&r2)
	if reflect.DeepEqual(w1.AttemptTypes, w2.AttemptTypes) {
		t.Fatalf("degenerate: both substreams label the line %v", w1.AttemptTypes)
	}
	cx := sp.newMemoCtx()
	for _, r := range []*dataset.Record{&r1, &r2, &r1, &r2, &r2, &r1} {
		want := w1
		if r == &r2 {
			want = w2
		}
		if got := cx.ClassifyRecord(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("substream %d: memoised verdict %+v, want %+v", StreamOf(r), got, want)
		}
	}
}
