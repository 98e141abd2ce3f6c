package analysis

import (
	"bytes"
	"runtime"
	"testing"
)

// restoreBudget is what restoring n bytes of state may allocate: a
// fixed multiple of the input, over what an empty Incremental and its
// first record slab cost.
func restoreBudget(n int) uint64 { return 64*uint64(n) + 2<<20 }

// FuzzRestoreIncremental fuzzes the Incremental state codec, which
// crosses a crash (a checkpoint read back at recovery) and a process (a
// standby's full resync), and through it drain.UnmarshalParser. For any
// bytes: RestoreIncremental neither panics nor allocates more than a
// fixed multiple of its input; a state that restores captures and
// marshals, and that MarshalBinary output round-trips to equal bytes;
// and the restored accumulator snapshots without panicking. The seeds
// are the states of an empty accumulator and of one over 40 records;
// the committed corpus replays in plain go test.
func FuzzRestoreIncremental(f *testing.F) {
	records := testCorpus()
	for _, n := range []int{0, 40} {
		inc := NewIncremental(DefaultPipelineConfig())
		for i := range records[:n] {
			inc.Add(&records[i])
		}
		blob, err := inc.CaptureState().MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var inc *Incremental
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inc, err = RestoreIncremental(b)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > restoreBudget(len(b)) {
			t.Fatalf("restoring %d bytes of state allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		enc, err := inc.CaptureState().MarshalBinary()
		if err != nil {
			t.Fatalf("a restored state does not marshal: %v", err)
		}
		again, err := RestoreIncremental(enc)
		if err != nil {
			t.Fatalf("a marshalled state does not restore: %v", err)
		}
		rt, err := again.CaptureState().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rt, enc) {
			t.Fatalf("a marshalled state round-trips to other bytes (%d vs %d)", len(rt), len(enc))
		}
		if a := inc.Snapshot(nil); a.Records.Len() != inc.Len() {
			t.Fatalf("snapshot holds %d records, the state %d", a.Records.Len(), inc.Len())
		}
	})
}
