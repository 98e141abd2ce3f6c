package bounce_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/world"
)

// storeCorpus is a 20k-email world's records, generated once for the
// store tests, and the same records as 500-line NDJSON bodies, the way
// bounced's ingest receives them.
var (
	storeOnce    sync.Once
	storeRecords []dataset.Record
	storeBodies  [][]byte
)

func storeCorpus(t *testing.T) ([]dataset.Record, [][]byte) {
	t.Helper()
	storeOnce.Do(func() {
		cfg := world.DefaultConfig()
		cfg.TotalEmails = 20_000
		_, storeRecords = bounce.GenerateParallel(cfg, 2)
		for lo := 0; lo < len(storeRecords); lo += 500 {
			var body []byte
			for i := lo; i < min(lo+500, len(storeRecords)); i++ {
				body = append(storeRecords[i].AppendJSON(body), '\n')
			}
			storeBodies = append(storeBodies, body)
		}
	})
	return storeRecords, storeBodies
}

// ingestBodies decodes each body through a ParallelReader, on pooled
// Decoders, and folds every batch into inc, as bounced's ingest does;
// seen, when not nil, is called with every decoded batch before the
// fold.
func ingestBodies(t *testing.T, inc *analysis.Incremental, bodies [][]byte, seen func([]dataset.Record)) {
	t.Helper()
	for _, body := range bodies {
		pr := dataset.NewParallelReader(bytes.NewReader(body), 0)
		for {
			batch, ok := pr.NextBatch()
			if !ok {
				break
			}
			if seen != nil {
				seen(batch)
			}
			inc.AddBatch(batch)
		}
		if err := pr.Err(); err != nil {
			t.Fatal(err)
		}
		pr.Close()
	}
}

// TestStoredRecordsMarshalAsInput: the store interns and copies every
// string of a record, and none of that shows — each stored record
// marshals to the bytes of the record it was given, over the whole
// corpus, both as ingest stores it (AppendCopy of decoded records) and
// as recovery and resync rebuild it (CaptureState, MarshalBinary,
// RestoreIncremental).
func TestStoredRecordsMarshalAsInput(t *testing.T) {
	records, bodies := storeCorpus(t)
	check := func(path string, view dataset.Records) {
		t.Helper()
		if view.Len() != len(records) {
			t.Fatalf("%s: %d records stored, %d given", path, view.Len(), len(records))
		}
		for i := range records {
			want, err := records[i].MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			got, err := view.At(i).MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: record %d marshals to\n%s\nwant\n%s", path, i, got, want)
			}
		}
	}
	inc := analysis.NewIncremental(analysis.DefaultPipelineConfig())
	ingestBodies(t, inc, bodies, nil)
	check("AppendCopy", inc.Snapshot(nil).Records)

	state, err := inc.CaptureState().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := analysis.RestoreIncremental(state)
	if err != nil {
		t.Fatal(err)
	}
	clear(state) // a restored store must not read the blob it came from
	check("RestoreIncremental", restored.Snapshot(nil).Records)
}

// TestStoreHoldsNoDecoderChunk: once records are stored, nothing the
// accumulator holds — stored strings, popularity-count keys, the
// trained pipelines, a snapshot and its verdicts — points into the
// Decoder chunks the records were decoded into, so after a collection
// every one of those chunks is gone. A weak pointer into each decoded
// record's sender string watches its chunk.
func TestStoreHoldsNoDecoderChunk(t *testing.T) {
	_, bodies := storeCorpus(t)
	var watched []weak.Pointer[byte]
	inc := analysis.NewIncremental(analysis.DefaultPipelineConfig())
	ingestBodies(t, inc, bodies, func(batch []dataset.Record) {
		for i := range batch {
			if from := batch[i].From; len(from) > 16 { // not a tiny-allocator block
				watched = append(watched, weak.Make(unsafe.StringData(from)))
			}
		}
	})
	a := inc.Snapshot(nil)
	// The decoder and chunk pools let go of what they hold over two
	// collections; a third finds everything only they reached.
	for range 3 {
		runtime.GC()
	}
	alive := 0
	for _, w := range watched {
		if w.Value() != nil {
			alive++
		}
	}
	if len(watched) == 0 {
		t.Fatal("degenerate corpus: no sender watched")
	}
	if alive > 0 {
		t.Fatalf("%d of %d decoded senders' chunks are still reachable from the accumulator", alive, len(watched))
	}
	runtime.KeepAlive(inc)
	runtime.KeepAlive(a)
}
