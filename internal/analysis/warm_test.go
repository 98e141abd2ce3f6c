package analysis

import (
	"bytes"
	"reflect"
	"testing"
)

// TestTrainingSamplesHashStable: the training set walks the labeled
// groups in ID order, so building it twice from one pipeline gives the
// same hash — the hash FinishWarm compares to reuse a classifier.
func TestTrainingSamplesHashStable(t *testing.T) {
	records, _ := generated(11, 6000)
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records)
	trained := 0
	for s, p := range inc.Snapshot(nil).Pipeline.Shards {
		if p.Classifier == nil {
			continue
		}
		trained++
		first := hashSamples(p.trainingSamples(new(trainScratch)))
		for i := 0; i < 5; i++ {
			if h := hashSamples(p.trainingSamples(new(trainScratch))); h != first {
				t.Fatalf("substream %d: training set hashes %x, then %x", s, first, h)
			}
		}
	}
	if trained < NumStreams/2 {
		t.Fatalf("only %d of %d substreams trained a classifier", trained, NumStreams)
	}
}

// TestWarmSnapshotReusesUntouchedClassifiers: a record adds to one
// substream, so every other substream's next snapshot finds the same
// training set and keeps the classifier it had.
func TestWarmSnapshotReusesUntouchedClassifiers(t *testing.T) {
	records, _ := generated(11, 6000)
	n := len(records) - 1
	inc := NewIncremental(DefaultPipelineConfig())
	inc.AddBatch(records[:n])
	before := inc.Snapshot(nil).Pipeline.Shards
	inc.Add(&records[n])
	after := inc.Snapshot(nil).Pipeline.Shards
	touched := StreamOf(&records[n])
	kept := 0
	for s := range before {
		if s == touched || before[s].Classifier == nil {
			continue
		}
		if after[s].Classifier != before[s].Classifier {
			t.Errorf("substream %d retrained though the record went to substream %d", s, touched)
		}
		kept++
	}
	if kept < NumStreams/2 {
		t.Fatalf("only %d substreams had a classifier to keep", kept)
	}
}

// TestWarmSnapshotMatchesCold: a snapshot finished warm against the
// previous one — classifiers and template votes reused where the
// training set did not move — equals, byte for byte, a snapshot of a
// fresh accumulator over the same records.
func TestWarmSnapshotMatchesCold(t *testing.T) {
	records, _ := generated(11, 6000)
	cfg := DefaultPipelineConfig()
	added := len(records) - 26
	inc := NewIncremental(cfg)
	inc.AddBatch(records[:added])
	inc.Snapshot(nil)
	for _, k := range []int{1, 5, 20} {
		inc.AddBatch(records[added : added+k])
		added += k
		warm := inc.Snapshot(nil)
		fresh := NewIncremental(cfg)
		fresh.AddBatch(records[:added])
		cold := fresh.Snapshot(nil)
		if !reflect.DeepEqual(warm.Classified, cold.Classified) {
			t.Fatalf("+%d records: warm verdicts differ from cold", k)
		}
		if !bytes.Equal(warm.Partials().Marshal(), cold.Partials().Marshal()) {
			t.Fatalf("+%d records: warm partial set differs from cold", k)
		}
	}
}
