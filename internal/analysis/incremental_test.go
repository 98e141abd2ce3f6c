package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dataset"
)

// TestIncrementalSnapshotMatchesBatchPrefix: a snapshot taken after N
// records must equal the batch reference over exactly those N records —
// same classifications, rank, tables and figures, detections. This is
// the batch/online equivalence invariant the bounced service serves
// reports under.
func TestIncrementalSnapshotMatchesBatchPrefix(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	checkpoints := map[int]bool{len(records) / 3: true, len(records): true}
	for i := range records {
		inc.Add(&records[i])
		n := i + 1
		if !checkpoints[n] {
			continue
		}
		snap := inc.Snapshot(nil)
		if snap.Records.Len() != n {
			t.Fatalf("snapshot after %d records holds %d", n, snap.Records.Len())
		}
		matchBatch(t, fmt.Sprintf("prefix %d", n), snap, records[:n], nil)
		if got, want := snap.Pipeline.NumTemplates(), batchAnalysis(records[:n], nil).Pipeline.NumTemplates(); got != want {
			t.Fatalf("snapshot mined %d templates at prefix %d, batch %d", got, n, want)
		}
	}
}

// TestIncrementalSnapshotDoesNotFreezeBuilder: taking a snapshot must
// leave the accumulator live — later Adds change later snapshots but
// never the one already taken.
func TestIncrementalSnapshotDoesNotFreezeBuilder(t *testing.T) {
	records := testCorpus()
	half := len(records) / 2
	inc := NewIncremental(DefaultPipelineConfig())
	for i := 0; i < half; i++ {
		inc.Add(&records[i])
	}
	early := inc.Snapshot(nil)
	earlyResults := early.Partials().Marshal()
	for i := half; i < len(records); i++ {
		inc.Add(&records[i])
	}
	if got := inc.Len(); got != len(records) {
		t.Fatalf("accumulator holds %d records after snapshot + adds, want %d", got, len(records))
	}
	late := inc.Snapshot(nil)
	if late.Records.Len() != len(records) {
		t.Fatalf("late snapshot holds %d records, want %d", late.Records.Len(), len(records))
	}
	if !bytes.Equal(early.Partials().Marshal(), earlyResults) {
		t.Fatal("early snapshot mutated by later ingestion")
	}
	if early.Records.Len() != half {
		t.Fatalf("early snapshot grew to %d records", early.Records.Len())
	}
}

// TestIncrementalConcurrentAddSnapshot exercises the lock under the
// race detector: adders and snapshotters run concurrently.
func TestIncrementalConcurrentAddSnapshot(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range records {
			inc.Add(&records[i])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			a := inc.Snapshot(nil)
			if a.Records.Len() > len(records) {
				t.Errorf("snapshot holds %d records, more than ever added", a.Records.Len())
			}
		}
	}()
	wg.Wait()
	if inc.Len() != len(records) {
		t.Fatalf("accumulator holds %d records, want %d", inc.Len(), len(records))
	}
}

// TestIncrementalAddCopiesRecord is the aliasing regression test: Add
// must deep-copy the record so callers can reuse or mutate theirs (the
// parallel decoder recycles record buffers chunk by chunk).
func TestIncrementalAddCopiesRecord(t *testing.T) {
	records := testCorpus()
	ref := testCorpus() // deterministic second copy, untouched by the clobbering below
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range records {
		inc.Add(&records[i])
		// Clobber everything the caller still owns — struct fields and
		// the slice backing arrays (a pooled decoder reuses both).
		records[i].To = "clobbered@evil.com"
		for j := range records[i].DeliveryResult {
			records[i].DeliveryResult[j] = "599 clobbered"
		}
		for j := range records[i].DeliveryLatency {
			records[i].DeliveryLatency[j] = -1
		}
	}
	snap := inc.Snapshot(nil)
	for i := 0; i < snap.Records.Len(); i++ {
		got, want := snap.Records.At(i), &ref[i]
		if got.To != want.To || !reflect.DeepEqual(got.DeliveryResult, want.DeliveryResult) {
			t.Fatalf("record %d aliased the caller's buffer: got %+v want %+v", i, got, want)
		}
	}
	batch := batchAnalysis(ref, nil)
	if !reflect.DeepEqual(snap.Classified, batch.Classified) {
		t.Fatal("classifications diverge after caller-side mutation")
	}
}

// TestIncrementalRepeatedSuffixMatchesBatch: re-adding records whose
// NDR lines the template miner has already absorbed leaves the pipeline
// structure unchanged — the case FinishWarm reuses the EBRC and every
// vote in — and the second snapshot must still be byte-identical to a
// batch reference over all records.
func TestIncrementalRepeatedSuffixMatchesBatch(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range records {
		inc.Add(&records[i])
	}
	inc.Snapshot(nil)
	// The suffix repeats the corpus: identical line shapes and label
	// proportions, so neither the Drain structure nor any majority vote
	// can move.
	all := append(append([]dataset.Record(nil), records...), records...)
	for i := range records {
		inc.Add(&records[i])
	}
	matchBatch(t, "repeated suffix", inc.Snapshot(nil), all, nil)
}

// TestIncrementalNovelTemplateMatchesBatch: a structurally novel NDR
// line founds a new Drain group between two snapshots, and the second
// must still equal the batch reference.
func TestIncrementalNovelTemplateMatchesBatch(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range records {
		inc.Add(&records[i])
	}
	inc.Snapshot(nil)
	novel := rec("a@s.com", "u1@novel.com", clock.StudyStart.Add(10*time.Hour),
		"584 frobnication reactor deadline wobbled at node seven")
	inc.Add(&novel)
	all := append(append([]dataset.Record(nil), records...), novel)
	matchBatch(t, "novel template", inc.Snapshot(nil), all, nil)
}

// TestIncrementalIdleSnapshotsShareNothing: two snapshots with nothing
// added in between agree verdict for verdict, and neither can see a
// write to the other's.
func TestIncrementalIdleSnapshotsShareNothing(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	for i := range records {
		inc.Add(&records[i])
	}
	a, b := inc.Snapshot(nil), inc.Snapshot(nil)
	if !reflect.DeepEqual(a.Classified, b.Classified) {
		t.Fatal("two snapshots over the same records disagree")
	}
	if &a.Classified[0] == &b.Classified[0] {
		t.Fatal("two snapshots share one verdict array")
	}
}

// TestIncrementalTrainerConcurrent runs the dedicated trainer
// goroutine against concurrent adders and snapshotters (the bounced
// topology) under the race detector, then checks the final snapshot
// still equals the batch reference.
func TestIncrementalTrainerConcurrent(t *testing.T) {
	records := testCorpus()
	inc := NewIncremental(DefaultPipelineConfig())
	inc.StartTrainer()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range records {
			inc.Add(&records[i])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			inc.Snapshot(nil)
		}
	}()
	wg.Wait()
	inc.StopTrainer()
	matchBatch(t, "trainer-fed", inc.Snapshot(nil), records, nil)
}

// TestIncrementalFanOutMatchesSerial: a snapshot finishes its
// substreams, classifies and folds on GOMAXPROCS workers once the new
// records pay for more than one, and answers exactly what it answers on
// one — cold, then warm after an extension long enough to fan out too,
// with and without an environment (whose geo database and proxy regions
// the fold's workers then read at once). Under make race-parallel it is
// also the race check of those workers.
func TestIncrementalFanOutMatchesSerial(t *testing.T) {
	records, env := generated(7, 12500)
	cold := len(records) - 2*perWorker
	snapshots := func(procs int, e *Environment) []*Analysis {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		if procs > 1 && (widthFor(cold) < procs || widthFor(len(records)-cold) < 2) {
			t.Fatalf("%d records, %d of them cold, do not fan out on %d workers", len(records), cold, procs)
		}
		inc := NewIncremental(DefaultPipelineConfig())
		inc.AddBatch(records[:cold])
		first := inc.Snapshot(e)
		inc.AddBatch(records[cold:])
		return []*Analysis{first, inc.Snapshot(e)}
	}
	for _, e := range []*Environment{nil, env} {
		serial, parallel := snapshots(1, e), snapshots(4, e)
		for i, when := range []string{"cold", "warm"} {
			scope, err := serial[i].BouncedPartials().MarshalScope()
			if err != nil {
				t.Fatal(err)
			}
			want := productAnswers(t, serial[i], scope)
			if d := productAnswers(t, parallel[i], scope).diff(want); d != "" {
				t.Fatalf("%s snapshot, environment %t: %s on 4 workers differ from one's", when, e != nil, d)
			}
		}
	}
}
