package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// fuzzLog builds one valid segment — bare records and groups, named and
// not — and returns its bytes with every unit's boundary.
func fuzzLog(f *testing.F) ([]byte, []tailMark, uint64) {
	dir := f.TempDir()
	eng, err := Open(FSOptions{Dir: dir, Mode: FsyncOff, Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eng.Tail(0, nil); err != nil {
		f.Fatal(err)
	}
	var bounds []tailMark
	end := 0
	for _, u := range []struct {
		id string
		n  int
	}{{"", 1}, {"", 1}, {"g1", 3}, {"", 1}, {"", 2}, {"g2", 40}, {"", 1}, {"g3", 1}, {"", 1}, {"", 1}} {
		// The segment, header included, comes into being with the first
		// unit.
		bounds = append(bounds, tailMark{first: uint64(end), off: max(eng.Stats().WALBytes, segHeaderSize)})
		if err := eng.Append(Batch{ID: u.id, Records: mkRecs(end, end+u.n)}); err != nil {
			f.Fatal(err)
		}
		end += u.n
	}
	if err := eng.Close(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal", "seg-0000000000000000.wal"))
	if err != nil {
		f.Fatal(err)
	}
	return log, bounds, uint64(end)
}

// FuzzReadTailSegment: a segment made of a valid log cut at a
// fuzzer-chosen byte and continued with fuzzer bytes, read from a
// fuzzer-chosen replay point by an engine holding a fuzzer-chosen set
// of marks and, from sel's upper half, a tip. Both are ones the engine
// could have recorded for the uncut log, so those past the cut are
// stale: they point beyond the file's end — a tip recorded, then the
// segment truncated. (Marks into the fuzzer's own bytes are left out: frames
// carry no record index, so nothing could tell a unit the fuzzer copied
// there from the one the mark was recorded for, and an engine drops its
// marks before it lets such bytes be replaced.) ReadTail must not
// panic, must not allocate beyond what the file's size justifies
// whatever lengths the frames claim, and must deliver exactly what a
// walk from the header delivers.
func FuzzReadTailSegment(f *testing.F) {
	log, bounds, records := fuzzLog(f)
	all := ^uint32(0)
	// TestFSTornTailSweep's cuts: every fifth byte of the final frame.
	for cut := bounds[len(bounds)-1].off + 1; cut < int64(len(log)); cut += 5 {
		f.Add(uint16(cut), []byte{}, uint16(records-1), all)
	}
	f.Add(uint16(len(log)), []byte{}, uint16(0), all)
	f.Add(uint16(len(log)), []byte{}, uint16(44), uint32(0))
	// A unit gone from the middle, the rest of the log shifted down.
	f.Add(uint16(bounds[3].off), log[bounds[4].off:], uint16(5), all)
	// A cut inside the 40-record group, then garbage.
	f.Add(uint16(bounds[5].off+2000), []byte("\x01\x05garbage that is no frame"), uint16(20), all)
	// A record frame claiming just under 1 GiB of payload, cut off a few
	// bytes into it: the half-flushed frame a concurrent writer leaves.
	f.Add(uint16(bounds[8].off), append(binary.AppendUvarint([]byte{frameRecord}, maxFrameBytes-1), "crc-{\"from"...), uint16(40), all)
	f.Add(uint16(5), []byte{}, uint16(0), all) // cut inside the header
	// The tip alone, at each unit: whole log, then cut just before it,
	// inside it and after it, read from the tip's own index and around.
	for k, b := range bounds {
		tipOnly := uint32(k) << 16
		f.Add(uint16(len(log)), []byte{}, uint16(b.first), tipOnly)
		f.Add(uint16(b.off-1), []byte{}, uint16(b.first), tipOnly)
		f.Add(uint16(b.off+7), []byte("\x01"), uint16(b.first+1), tipOnly)
		f.Add(uint16(b.off), log[bounds[2].off:bounds[3].off], uint16(b.first), tipOnly|1<<uint(k))
	}

	f.Fuzz(func(t *testing.T, cut uint16, tail []byte, from uint16, sel uint32) {
		c := int(cut) % (len(log) + 1)
		if len(tail) > 1<<16 {
			tail = tail[:1<<16]
		}
		seg := append(append([]byte{}, log[:c]...), tail...)
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, "wal"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal", "seg-0000000000000000.wal"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var marks []tailMark
		for k, b := range bounds {
			if sel>>k&1 == 1 && (b.off <= int64(c) || b.off >= int64(len(seg))) {
				marks = append(marks, b)
			}
		}
		replay := uint64(from) % (records + 3)
		var tip tailMark
		if k := int(sel>>16) % (len(bounds) + 1); k < len(bounds) {
			if b := bounds[k]; b.off <= int64(c) || b.off >= int64(len(seg)) {
				tip = b
			}
		}

		ref := headerWalk(t, dir)
		defer ref.Close()
		want := readTailN(t, ref, replay, 0)

		eng := openT(t, FSOptions{Dir: dir, Logf: func(string, ...any) {}})
		defer eng.Close()
		eng.marks[0], eng.tip = marks, tip
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := readTailN(t, eng, replay, 0)
		runtime.ReadMemStats(&after)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d, %d fuzz bytes, from %d, marks %+v, tip %+v:\n got next=%d %d units\nwant next=%d %d units",
				c, len(tail), replay, marks, tip, got.next, len(got.units), want.next, len(want.units))
		}
		shipped := 0
		for _, u := range got.units {
			for _, p := range u.payloads {
				shipped += len(p)
			}
		}
		if shipped > len(seg) {
			t.Fatalf("delivered %d payload bytes from a %d-byte segment", shipped, len(seg))
		}
		// Two read buffers (a stale mark costs a second walk) and, twice
		// over, the payloads and their copies in the result; a frame
		// length taken on trust would add up to a gibibyte.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(seg)+4*markEveryBytes+(1<<20)) {
			t.Fatalf("reading a %d-byte segment allocated %d bytes", len(seg), grew)
		}
	})
}
