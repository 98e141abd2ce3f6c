package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestAppendBatchAllocs is the append path's budget: FS.Append of a
// 256-record batch — encode, frame, checksum, flush — allocates at most
// a tenth of an allocation per record, so an encoder that goes back to
// reflecting, or a frame that allocates its kind byte again, fails here
// and not in a benchmark run.
func TestAppendBatchAllocs(t *testing.T) {
	eng := openT(t, FSOptions{Dir: t.TempDir(), Mode: FsyncOff})
	defer eng.Close()
	recoverT(t, eng, 0)
	recs := mkRecs(0, 256)
	recs[3].DeliveryResult = []string{`550 5.1.1 <user3@rcv.com>: "unknown" & gone`} // an escape on the way
	b := Batch{ID: "allocs", Records: recs}
	if err := eng.Append(b); err != nil { // the segment, its writer, the encode buffer
		t.Fatal(err)
	}
	perRecord := testing.AllocsPerRun(20, func() {
		if err := eng.Append(b); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(recs))
	t.Logf("%.4f allocations per record", perRecord)
	if perRecord > 0.1 {
		t.Fatalf("FS.Append costs %.3f allocations per record over a %d-record batch, budget 0.1", perRecord, len(recs))
	}
}

// TestAppendPayloads: a batch that brings its records' bytes is stored
// as those bytes — the same log an engine encoding the records itself
// writes — and one whose payloads do not pair up with its records is
// refused before anything is written.
func TestAppendPayloads(t *testing.T) {
	recs := mkRecs(0, 40)
	recs[5].From = "\"<a&b>\" <a\\b@esp.com>\t\xff"
	encoded := func() ([][]byte, []Batch) {
		payloads := make([][]byte, len(recs))
		for i := range recs {
			payloads[i] = recs[i].AppendJSON(nil)
		}
		return payloads, []Batch{
			{ID: "g", Records: recs[:30], Payloads: payloads[:30]},
			{Records: recs[30:31], Payloads: payloads[30:31]},
			{Records: recs[31:], Payloads: payloads[31:]},
		}
	}

	engines(t, func(t *testing.T, eng Engine) {
		payloads, units := encoded()
		if _, err := eng.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Batch{
			{ID: "short", Records: recs[:3], Payloads: payloads[:2]},
			{ID: "long", Records: recs[:3], Payloads: payloads[:4]},
			{Records: recs[:1], Payloads: [][]byte{}},
		} {
			if err := eng.Append(bad); err == nil || !strings.Contains(err.Error(), "payloads") {
				t.Fatalf("Append with %d payloads for %d records: %v", len(bad.Payloads), len(bad.Records), err)
			}
		}
		if st := eng.Stats(); st.NextIndex != 0 || st.WALBytes != 0 {
			t.Fatalf("a refused batch left %d records, %d bytes in the log", st.NextIndex, st.WALBytes)
		}

		ref := NewMem()
		if _, err := ref.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			if err := eng.Append(u); err != nil {
				t.Fatal(err)
			}
			if err := ref.Append(Batch{ID: u.ID, Records: u.Records}); err != nil {
				t.Fatal(err)
			}
		}
		// The caller keeps its slices: nothing stored may alias them.
		for _, p := range payloads {
			clear(p)
		}
		got, want := readTailN(t, eng, 0, 0), readTailN(t, ref, 0, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a log appended from payloads reads back as %+v, one appended from records as %+v", got, want)
		}
	})

	// On disk: the two logs are one file.
	_, units := encoded()
	var files [2][]byte
	for k, withPayloads := range []bool{true, false} {
		dir := t.TempDir()
		eng := openT(t, FSOptions{Dir: dir, Mode: FsyncOff})
		recoverT(t, eng, 0)
		for _, u := range units {
			if !withPayloads {
				u.Payloads = nil
			}
			if err := eng.Append(u); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		b, err := os.ReadFile(lastSegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		files[k] = b
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("segment appended from payloads (%d bytes) differs from one appended from records (%d bytes)", len(files[0]), len(files[1]))
	}
}

// TestFSFsyncErrorIsSticky: after a failed fsync the kernel may have
// marked the pages it lost clean, so the next fsync can succeed without
// having written them. The engine must not let that second answer
// through: from the first failure on, Sync and Append both fail, and
// what the log already holds stays readable.
func TestFSFsyncErrorIsSticky(t *testing.T) {
	dir := t.TempDir()
	eng := openT(t, FSOptions{Dir: dir, Mode: FsyncBatch})
	defer eng.Close()
	recoverT(t, eng, 0)
	if err := eng.Append(Batch{ID: "ok", Records: mkRecs(0, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}

	calls := 0
	boom := errors.New("input/output error")
	eng.fsync = func(f *os.File) error {
		calls++
		if calls == 1 {
			return boom
		}
		return f.Sync()
	}
	if err := eng.Append(Batch{ID: "lost", Records: mkRecs(4, 8)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync over a failing fsync: %v", err)
	}
	if err := eng.Sync(); !errors.Is(err, boom) {
		t.Fatalf("second Sync, whose own fsync would succeed: %v; it must still report the lost one", err)
	}
	if err := eng.Append(Batch{ID: "after", Records: mkRecs(8, 12)}); !errors.Is(err, boom) {
		t.Fatalf("Append after a failed fsync: %v", err)
	}
	if err := eng.Rotate(); !errors.Is(err, boom) {
		t.Fatalf("Rotate after a failed fsync: %v", err)
	}
	if calls != 1 {
		t.Fatalf("fsync called %d times; after the first failure nothing may be acked on the strength of another", calls)
	}
	if st := eng.Stats(); st.NextIndex != 8 {
		t.Fatalf("next index %d, want the 8 records appended before the refusal", st.NextIndex)
	}
	if res := readTailN(t, eng, 0, 0); res.next != 8 || len(res.units) != 2 {
		t.Fatalf("reading the log after the failure: next %d, %d units", res.next, len(res.units))
	}
}

// TestReadTailFromTip: a caught-up standby asks for exactly the newest
// unit. The read seeks to it — the bytes scanned are that unit's and no
// more, however many units lie between it and the nearest spaced mark —
// and the tip goes wherever marks go: dropped by Reset and Close, found
// stale (then dropped) when the file was cut behind the engine's back,
// moved on by the first append after a rotation. Every read equals a
// header walk.
func TestReadTailFromTip(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, FSOptions{Dir: dir, Mode: FsyncOff})
	defer w.Close()
	recoverT(t, w, 0)
	const group = 16
	end := 0
	var unitBytes int64
	for k := 0; k < 40; k++ { // ≈ 120 KiB: one spaced mark, then a stretch behind it
		before := w.Stats().WALBytes
		if err := w.Append(Batch{ID: fmt.Sprintf("t%d", k), Records: mkRecs(end, end+group)}); err != nil {
			t.Fatal(err)
		}
		unitBytes = w.Stats().WALBytes - before
		end += group
	}
	same := func(what string, from uint64) tailResult {
		t.Helper()
		ref := headerWalk(t, dir)
		defer ref.Close()
		want, got := readTailN(t, ref, from, 0), readTailN(t, w, from, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: from %d: got next %d, %d units; header walk says next %d, %d units",
				what, from, got.next, len(got.units), want.next, len(want.units))
		}
		return got
	}
	scanned := func(from uint64) int64 {
		t.Helper()
		before := w.Stats().TailScannedBytes
		same("counting", from)
		return int64(w.Stats().TailScannedBytes - before)
	}

	last := uint64(end - group)
	if n := scanned(last); n != unitBytes {
		t.Fatalf("reading the newest unit scanned %d bytes; the unit is %d", n, unitBytes)
	}
	if n := scanned(last + 3); n != unitBytes {
		t.Fatalf("reading from inside the newest unit scanned %d bytes; the unit is %d", n, unitBytes)
	}
	if n := scanned(last - group); n <= unitBytes {
		t.Fatalf("reading from the unit before the tip scanned %d bytes: it cannot have started at the tip", n)
	}

	// Cut the newest unit in half behind the engine's back: the tip now
	// points at a frame that is there and a unit that is not.
	seg := lastSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	tearFile(t, seg, int(fi.Size()-unitBytes/2))
	if got := same("tip at a torn unit", last); got.next != last || len(got.units) != 0 {
		t.Fatalf("torn newest unit: next %d, %d units", got.next, len(got.units))
	}
	// Cut it away whole, and more: the tip lies past the end of the file.
	tearFile(t, seg, int(fi.Size()-3*unitBytes))
	same("tip past the end", last)
	same("tip past the end, earlier replay point", last-3*group)
	w.markMu.Lock()
	stale := w.tip
	w.markMu.Unlock()
	if stale.off != 0 {
		t.Fatalf("a tip with no valid frame behind it was kept: %+v", stale)
	}

	if err := w.Reset(1000); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Batch{ID: "r0", Records: mkRecs(0, group)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Batch{ID: "r1", Records: mkRecs(group, 2*group)}); err != nil {
		t.Fatal(err)
	}
	if got := same("after Reset", 1000+group); got.next != 1000+2*group || len(got.units) != 1 {
		t.Fatalf("after Reset: next %d, %d units", got.next, len(got.units))
	}

	// The tip follows the log into a new segment, so the segment a prune
	// removes is never the one holding it.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Batch{ID: "r2", Records: mkRecs(2*group, 3*group)}); err != nil {
		t.Fatal(err)
	}
	if err := w.pruneWAL(1000 + 2*group); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.PrunedSegments != 1 {
		t.Fatalf("pruned %d segments, want the sealed one", st.PrunedSegments)
	}
	if got := same("after rotate and prune", 1000+2*group); got.next != 1000+3*group || len(got.units) != 1 {
		t.Fatalf("after rotate and prune: next %d, %d units", got.next, len(got.units))
	}
}

// TestReadTailPayloadsStayValid: what the callback is handed is the
// caller's for good. Payloads are cut from shared chunks, so the thing
// to rule out is a later frame — of this read or the next — landing in
// memory an earlier payload still occupies.
func TestReadTailPayloadsStayValid(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, FSOptions{Dir: dir, Mode: FsyncOff})
	defer w.Close()
	recoverT(t, w, 0)
	end := 0
	for k := 0; end < 3000; k++ { // several chunks' worth, units of mixed size
		n := 1 + k%37
		id := ""
		if k%3 != 0 {
			id = fmt.Sprintf("p%d", k)
		}
		if err := w.Append(Batch{ID: id, Records: mkRecs(end, end+n)}); err != nil {
			t.Fatal(err)
		}
		end += n
	}
	type held struct {
		payload []byte // as handed to the callback, kept
		copy    string // what it said then
	}
	var kept []held
	read := func(from uint64) {
		if _, err := w.ReadTail(from, func(_ uint64, b RawBatch) error {
			for _, p := range b.Payloads {
				kept = append(kept, held{p, string(p)})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	read(uint64(end / 2))
	read(uint64(end - 1))
	if len(kept) < end {
		t.Fatalf("kept %d payloads of %d records", len(kept), end)
	}
	for i, h := range kept {
		if string(h.payload) != h.copy {
			t.Fatalf("payload %d changed after later units were read:\n now %q\n was %q", i, h.payload, h.copy)
		}
	}
	var rec dataset.Record
	var dec dataset.Decoder
	for i := 0; i < end; i++ {
		if err := dec.Decode(kept[i].payload, &rec); err != nil || rec.To != mkRec(i).To {
			t.Fatalf("payload %d is no longer record %d: %v, %q", i, i, err, rec.To)
		}
	}
	if got, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal")); err != nil || len(got) != 1 {
		t.Fatalf("segments: %v, %v", got, err)
	}
}
