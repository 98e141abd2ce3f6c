package bounced

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/store"
)

// checkpointBudget is what decoding n bytes of checkpoint, and reading
// its sections, may allocate: a fixed multiple of the input over a
// small constant.
func checkpointBudget(n int) uint64 { return 64*uint64(n) + 1<<20 }

// FuzzDecodeCheckpoint fuzzes what a node reads back at recovery and a
// standby at a full resync: store.DecodeCheckpoint, and within it the
// dedup section's restore and the repl section's epoch (the incremental
// section has FuzzRestoreIncremental). The fuzzer writes the
// checkpoint's body; with fixCRC the harness appends the checksum the
// body needs, so the bytes past it get parsed rather than refused at
// the trailer. For any input: nothing panics; decoding and reading the
// sections allocate at most a fixed multiple of the input; a checkpoint
// that decodes re-encodes to the same bytes (the encoder writes each
// section once, names in order, so the decoder refuses any other
// layout); and a dedup window that restores marshals to a section that
// restores to the same window. The seeds are an empty checkpoint and
// one as a durable node writes it; the committed corpus replays in
// plain go test.
func FuzzDecodeCheckpoint(f *testing.F) {
	var d dedupWindow
	d.init(4)
	for i, id := range []string{"b-1", "b-2", "b-3"} {
		d.register(id, 10*(i+1))
	}
	body := func(cp *store.Checkpoint) []byte {
		b := store.EncodeCheckpoint(cp)
		return b[:len(b)-4]
	}
	f.Add(body(&store.Checkpoint{Sections: map[string][]byte{}}), true)
	f.Add(body(&store.Checkpoint{Records: 30, Sections: map[string][]byte{
		sectionDedup:       d.marshal(),
		sectionIncremental: []byte("state"),
		sectionRepl:        []byte(`{"epoch":2}`),
	}}), true)

	crc := crc32.MakeTable(crc32.Castagnoli)
	f.Fuzz(func(t *testing.T, body []byte, fixCRC bool) {
		b := body
		if fixCRC {
			b = binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crc))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cp, err := store.DecodeCheckpoint(b)
		var w dedupWindow
		w.init(256)
		var restoreErr error
		if err == nil {
			restoreErr = w.restore(cp.Sections[sectionDedup])
			replEpoch(cp)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > checkpointBudget(len(b)) {
			t.Fatalf("decoding %d bytes of checkpoint allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		if again := store.EncodeCheckpoint(cp); !bytes.Equal(again, b) {
			t.Fatalf("a decoded checkpoint re-encodes to other bytes (%d vs %d)", len(again), len(b))
		}
		if _, ok := cp.Sections[sectionDedup]; !ok || restoreErr != nil {
			return
		}
		sec := w.marshal()
		var w2 dedupWindow
		w2.init(256)
		if err := w2.restore(sec); err != nil {
			t.Fatalf("a marshalled dedup window does not restore: %v", err)
		}
		if again := w2.marshal(); !bytes.Equal(again, sec) {
			t.Fatalf("a dedup window round-trips to another section: %s, then %s", sec, again)
		}
	})
}
