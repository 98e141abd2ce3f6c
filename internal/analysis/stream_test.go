package analysis

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestNewFromSourceMatchesNew: the single-pass streaming constructor
// and the slice constructor both answer what the batch reference does —
// same classifications, same rank, same tables and figures.
func TestNewFromSourceMatchesNew(t *testing.T) {
	records := testCorpus()
	slice := New(records, nil)

	pipe := dataset.NewPipe(8)
	go func() {
		for i := range records {
			pipe.Write(&records[i])
		}
		pipe.Close()
	}()
	streamed := NewFromSource(pipe, DefaultPipelineConfig(), nil)

	if streamed.Records.Len() != slice.Records.Len() {
		t.Fatalf("streamed %d records, slice %d", streamed.Records.Len(), slice.Records.Len())
	}
	matchBatch(t, "slice constructor", slice, records, nil)
	matchBatch(t, "streaming constructor", streamed, records, nil)
}

// TestNewKeepsCallerRecords: New reads the caller's slice in place —
// its Analysis's records are the caller's, not copies.
func TestNewKeepsCallerRecords(t *testing.T) {
	records := testCorpus()
	a := New(records, nil)
	if a.Records.Len() != len(records) {
		t.Fatalf("New holds %d records, want %d", a.Records.Len(), len(records))
	}
	for i := range records {
		if a.Records.At(i) != &records[i] {
			t.Fatalf("record %d was copied", i)
		}
	}
}

// TestNewFromSourceStopsTrainer: NewFromSource trains on a goroutine of
// its own, and none is left running once it returns.
func TestNewFromSourceStopsTrainer(t *testing.T) {
	records := testCorpus()
	NewFromSource(dataset.NewSliceSource(records), DefaultPipelineConfig(), nil)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(stacks, []byte("(*Incremental).trainLoop")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a trainer goroutine outlived NewFromSource:\n%s", stacks)
		}
	}
}
