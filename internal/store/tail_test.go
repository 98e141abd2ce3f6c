package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

type tailUnit struct {
	id       string
	start    uint64
	payloads []string
}

// collectTail drains ReadTail into a unit list.
func collectTail(t *testing.T, eng Engine, from uint64) ([]tailUnit, uint64) {
	t.Helper()
	res := readTailN(t, eng, from, 0)
	if res.truncated {
		t.Fatalf("ReadTail(%d): %v", from, ErrTailTruncated)
	}
	return res.units, res.next
}

// engines runs a subtest against both Engine implementations — the
// point of the interface is that they are interchangeable.
func engines(t *testing.T, run func(t *testing.T, eng Engine)) {
	t.Run("fs", func(t *testing.T) {
		f := openT(t, FSOptions{Dir: t.TempDir()})
		defer f.Close()
		run(t, f)
	})
	t.Run("mem", func(t *testing.T) {
		m := NewMem()
		defer m.Close()
		run(t, m)
	})
}

func TestReadTailUnits(t *testing.T) {
	engines(t, func(t *testing.T, eng Engine) {
		if _, err := eng.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(Batch{Records: mkRecs(0, 1)}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(Batch{ID: "b1", Records: mkRecs(1, 4)}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(Batch{ID: "b2", Records: mkRecs(4, 6)}); err != nil {
			t.Fatal(err)
		}

		units, next := collectTail(t, eng, 0)
		if next != 6 {
			t.Fatalf("next = %d, want 6", next)
		}
		if len(units) != 3 {
			t.Fatalf("units = %d, want 3", len(units))
		}
		if units[0].id != "" || units[0].start != 0 || len(units[0].payloads) != 1 {
			t.Fatalf("bare unit = %+v", units[0])
		}
		if units[1].id != "b1" || units[1].start != 1 || len(units[1].payloads) != 3 {
			t.Fatalf("b1 unit = %+v", units[1])
		}
		if units[2].id != "b2" || units[2].start != 4 {
			t.Fatalf("b2 unit = %+v", units[2])
		}
		// Payloads are the appended wire bytes; they must decode back to
		// the same record the batch carried.
		var rec dataset.Record
		if err := (&dataset.Decoder{}).Decode([]byte(units[1].payloads[0]), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.From != mkRec(1).From {
			t.Fatalf("payload decodes to %q", rec.From)
		}

		// From a later offset only the units past it appear; a unit
		// straddling `from` is delivered whole with its true start.
		units, next = collectTail(t, eng, 2)
		if next != 6 || len(units) != 2 {
			t.Fatalf("from 2: %d units, next %d", len(units), next)
		}
		if units[0].id != "b1" || units[0].start != 1 || len(units[0].payloads) != 3 {
			t.Fatalf("straddling unit = %+v", units[0])
		}

		// From the end: empty scan, no error.
		units, next = collectTail(t, eng, 6)
		if len(units) != 0 || next != 6 {
			t.Fatalf("from end: %d units, next %d", len(units), next)
		}

		// ErrStopTail ends early; the stopping unit counts as delivered.
		var got int
		next, err := eng.ReadTail(0, func(start uint64, b RawBatch) error {
			got++
			if b.ID == "b1" {
				return ErrStopTail
			}
			return nil
		})
		if err != nil || got != 2 || next != 4 {
			t.Fatalf("stop: err=%v got=%d next=%d", err, got, next)
		}
	})
}

func TestReadTailTruncatedTyped(t *testing.T) {
	engines(t, func(t *testing.T, eng Engine) {
		if _, err := eng.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := eng.Append(Batch{ID: fmt.Sprintf("b%d", i), Records: mkRecs(i*4, i*4+4)}); err != nil {
				t.Fatal(err)
			}
		}
		if f, ok := eng.(*FS); ok {
			// Force the WAL below the checkpoint into separate prunable
			// segments.
			if err := f.Rotate(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Append(Batch{Records: mkRecs(200, 201)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Checkpoint(&Checkpoint{Records: 200, Sections: map[string][]byte{}}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Checkpoint(&Checkpoint{Records: 200, Sections: map[string][]byte{"v": []byte("2")}}); err != nil {
			t.Fatal(err)
		}

		_, err := eng.ReadTail(0, func(uint64, RawBatch) error { return nil })
		if !errors.Is(err, ErrTailTruncated) {
			t.Fatalf("ReadTail below the pruned floor: %v", err)
		}
		// The recovery path reports the same typed error (satellite: a
		// stale offset must not silently replay from the wrong point).
		_, err = eng.Tail(0, func(uint64, *dataset.Record) error { return nil })
		if !errors.Is(err, ErrTailTruncated) {
			t.Fatalf("Tail below the pruned floor: %v", err)
		}
		// From the checkpoint the tail is clean.
		if _, err := eng.ReadTail(200, func(uint64, RawBatch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadTailStopsAtTornFrame(t *testing.T) {
	dir := t.TempDir()
	f := openT(t, FSOptions{Dir: dir})
	recoverT(t, f, 0)
	for i := 0; i < 10; i++ {
		if err := f.Append(Batch{ID: fmt.Sprintf("b%d", i), Records: mkRecs(i, i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	seg := lastSegment(t, dir)
	fi, _ := os.Stat(seg)
	tearFile(t, seg, int(fi.Size())-3)

	// The read-only scan must stop at the last complete unit — no
	// truncation, no error: the writer could still be mid-flush.
	g := openT(t, FSOptions{Dir: dir, ReadOnly: true, Logf: func(string, ...any) {}})
	units, next := collectTail(t, g, 0)
	if len(units) != 9 || next != 9 {
		t.Fatalf("torn tail scan: %d units, next %d; want 9", len(units), next)
	}
	after, _ := os.Stat(seg)
	if after.Size() != fi.Size()-3 {
		t.Fatal("ReadTail modified the segment")
	}
	g.Close()
}

func TestEngineReset(t *testing.T) {
	engines(t, func(t *testing.T, eng Engine) {
		if _, err := eng.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := eng.Append(Batch{ID: "stale", Records: mkRecs(0, 30)}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Checkpoint(&Checkpoint{Records: 30, Sections: map[string][]byte{"v": []byte("stale")}}); err != nil {
			t.Fatal(err)
		}

		// Resync onto a checkpoint from elsewhere: everything local goes.
		if err := eng.Reset(100); err != nil {
			t.Fatal(err)
		}
		if cp, err := eng.Recover(); err != nil || cp != nil {
			t.Fatalf("Recover after Reset = %+v, %v", cp, err)
		}
		cp := &Checkpoint{Records: 100, Sections: map[string][]byte{"v": []byte("fetched")}}
		if err := eng.Checkpoint(cp); err != nil {
			t.Fatal(err)
		}
		// Appendable immediately, indices continuing from the reset point.
		if err := eng.Append(Batch{ID: "fresh", Records: mkRecs(100, 104)}); err != nil {
			t.Fatal(err)
		}
		units, next := collectTail(t, eng, 100)
		if next != 104 || len(units) != 1 || units[0].start != 100 || units[0].id != "fresh" {
			t.Fatalf("after reset: units=%+v next=%d", units, next)
		}
		if st := eng.Stats(); st.NextIndex != 104 {
			t.Fatalf("stats after reset: %+v", st)
		}
	})
}

func TestMemEngineContract(t *testing.T) {
	m := NewMem()
	if err := m.Append(Batch{Records: mkRecs(0, 1)}); err == nil {
		t.Fatal("Append before Tail accepted")
	}
	info, err := m.Tail(0, func(uint64, *dataset.Record) error { return nil })
	if err != nil || info.NextIndex != 0 {
		t.Fatalf("fresh Tail: %+v, %v", info, err)
	}
	if err := m.Append(Batch{ID: "a", Records: mkRecs(0, 5)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(Batch{Records: mkRecs(5, 6)}); err != nil {
		t.Fatal(err)
	}
	// Replay everything, indices and batch registry intact.
	var got []string
	info, err = m.Tail(0, func(idx uint64, rec *dataset.Record) error {
		got = append(got, rec.From)
		return nil
	})
	if err != nil || len(got) != 6 || info.NextIndex != 6 || info.Replayed != 6 {
		t.Fatalf("replay: %d records, info %+v, %v", len(got), info, err)
	}
	if got[0] != mkRec(0).From || got[5] != mkRec(5).From {
		t.Fatalf("replay order: %v", got)
	}
	if info.Batches["a"] != 5 || len(info.Batches) != 1 {
		t.Fatalf("batches = %v", info.Batches)
	}
	// Checkpoint round-trips through the on-disk codec and prunes.
	if err := m.Checkpoint(&Checkpoint{Records: 5, Sections: map[string][]byte{"s": []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(&Checkpoint{Records: 6, Sections: map[string][]byte{"s": []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(&Checkpoint{Records: 6, Sections: map[string][]byte{"s": []byte("z")}}); err != nil {
		t.Fatal(err)
	}
	cp, err := m.Recover()
	if err != nil || cp == nil || cp.Records != 6 || string(cp.Sections["s"]) != "z" {
		t.Fatalf("Recover = %+v, %v", cp, err)
	}
	if st := m.Stats(); st.Checkpoints != 3 || st.LastCheckpointRecords != 6 {
		t.Fatalf("stats = %+v", st)
	}
	// Units below the oldest retained checkpoint are gone.
	if _, err := m.Tail(0, func(uint64, *dataset.Record) error { return nil }); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("pruned replay: %v", err)
	}
	if _, err := m.Tail(6, func(uint64, *dataset.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestFSCheckpointRotateTailRace drives Append/Rotate/Checkpoint/
// ReadTail/Stats concurrently, with segments a few marks long so that
// checkpoint pruning constantly races rotation, the tail scans and the
// offset index — the -race proof for the replication read path. Three
// times the writer "crashes": its engine is closed, the final frame of
// the log torn (the faultinject torn plan) and a new engine recovers
// the directory, truncating the tear, while the readers keep polling
// whichever engine they last saw. Every ReadTail, from the previous
// read's end or from a random offset near the log end, must deliver
// whole units, the first one holding its replay point and each next one
// starting where the last ended — none twice, none skipped, every
// payload the record its index says — or report a typed truncation;
// never an error, never a partial unit.
func TestFSCheckpointRotateTailRace(t *testing.T) {
	const (
		total = 6016
		group = 8
	)
	dir := t.TempDir()
	opts := FSOptions{Dir: dir, SegmentBytes: 192 << 10, Mode: FsyncOff, KeepCheckpoints: 1, Logf: func(string, ...any) {}}
	var (
		cur       atomic.Pointer[FS]
		confirmed atomic.Uint64 // record count acked by Append
		crashes   atomic.Uint64 // odd while a crash is in progress
		reads     atomic.Uint64
		life      sync.RWMutex // held exclusively across a crash
		wg        sync.WaitGroup
	)
	f := openT(t, opts)
	recoverT(t, f, 0)
	cur.Store(f)
	stop := make(chan struct{})
	stopAll := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopAll() // a t.Fatal below must not leave the goroutines running

	wg.Add(1)
	go func() { // checkpointer: prunes aggressively behind the writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			life.RLock()
			// Two units behind the log end, so a torn final unit never
			// leaves the checkpoint ahead of the log.
			if n := confirmed.Load(); n > 2*group {
				if err := cur.Load().Checkpoint(&Checkpoint{Records: n - 2*group, Sections: map[string][]byte{}}); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
			}
			life.RUnlock()
		}
	}()

	for r := 0; r < 3; r++ {
		rng := rand.New(rand.NewSource(int64(r) + 1))
		wg.Add(1)
		go func() { // tailers: replication reads from moving offsets
			defer wg.Done()
			// epoch is the crash count from before `from` was chosen; the
			// log only grows while it stays put (and even).
			from, resumed, epoch := uint64(0), true, uint64(0)
			grewOnly := func() bool { return epoch%2 == 0 && crashes.Load() == epoch }
			for {
				select {
				case <-stop:
					return
				default:
				}
				expect, first := from, true
				before := crashes.Load()
				next, err := cur.Load().ReadTail(from, func(start uint64, b RawBatch) error {
					switch {
					case b.ID != fmt.Sprintf("b%d", start) || len(b.Payloads) != group:
						t.Errorf("partial or foreign unit at %d: id %q, %d records", start, b.ID, len(b.Payloads))
					case first && resumed && start != from && grewOnly():
						t.Errorf("resumed at %d but the next unit starts at %d (skipped or repeated)", from, start)
					case first && (start > from || from >= start+group):
						t.Errorf("tail from %d starts with unit [%d,%d)", from, start, start+group)
					case !first && start != expect:
						t.Errorf("unit at %d, want %d (reorder/gap)", start, expect)
					}
					for i, p := range b.Payloads {
						if want := fmt.Sprintf(`"from":"sender%d@`, start+uint64(i)); !bytes.Contains(p, []byte(want)) {
							t.Errorf("record %d carries %.60s", start+uint64(i), p)
						}
					}
					first, expect = false, start+group
					return nil
				})
				reads.Add(1)
				switch {
				case errors.Is(err, ErrTailTruncated):
					// Pruning outran this reader: restart near the end, the
					// standby's checkpoint-refetch path.
				case err != nil:
					t.Errorf("readtail: %v", err)
					return
				case next < from && grewOnly():
					t.Errorf("tail went backwards: from %d to %d", from, next)
					return
				}
				if err == nil && next >= from && rng.Intn(2) == 0 {
					from, resumed, epoch = next, true, before
				} else {
					epoch = crashes.Load()
					// A random offset near the log end, mid-unit more often
					// than not.
					from, resumed = confirmed.Load(), false
					if back := uint64(rng.Intn(6 * group)); back < from {
						from -= back
					}
				}
				cur.Load().Stats()
			}
		}()
	}

	// The writer: appends with periodic rotations, and three crashes.
	for end, crashAt := 0, total/4; end < total; {
		eng := cur.Load()
		if err := eng.Append(Batch{ID: fmt.Sprintf("b%d", end), Records: mkRecs(end, end+group)}); err != nil {
			t.Fatalf("append: %v", err)
		}
		end += group
		confirmed.Store(uint64(end))
		if end%(80*group) == 0 {
			if err := eng.Rotate(); err != nil {
				t.Fatalf("rotate: %v", err)
			}
		}
		if end == crashAt && end < total {
			crashAt += total / 4
			life.Lock()
			crashes.Add(1)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			seg := lastSegment(t, dir)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			tearFile(t, seg, int(fi.Size())-3)
			g := openT(t, opts)
			cp, err := g.Recover()
			if err != nil {
				t.Fatal(err)
			}
			var at uint64
			if cp != nil {
				at = cp.Records
			}
			_, info := recoverT(t, g, at)
			if !info.TornTruncated || info.NextIndex != uint64(end-group) {
				t.Fatalf("crash at %d recovered to %d (torn=%v)", end, info.NextIndex, info.TornTruncated)
			}
			end = int(info.NextIndex)
			confirmed.Store(info.NextIndex)
			cur.Store(g)
			crashes.Add(1)
			life.Unlock()
		}
		runtime.Gosched()
	}
	stopAll()
	t.Logf("%d tail reads, %d marks in the final engine", reads.Load(), markCount(cur.Load()))
	if markCount(cur.Load()) == 0 {
		t.Error("no marks in play at the end: the race is not exercising the index")
	}

	// One deterministic final checkpoint (the storm's checkpointer may
	// have lost every race), then the log must recover cleanly.
	f = cur.Load()
	if err := f.Checkpoint(&Checkpoint{Records: total, Sections: map[string][]byte{}}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g := openT(t, FSOptions{Dir: dir, Logf: func(string, ...any) {}})
	cp, err := g.Recover()
	if err != nil || cp == nil || cp.Records != total {
		t.Fatalf("Recover after race: %+v, %v", cp, err)
	}
	_, info := recoverT(t, g, cp.Records)
	if info.NextIndex != total {
		t.Fatalf("next after race = %d, want %d", info.NextIndex, total)
	}
	g.Close()
}

// tailResult is everything a ReadTail caller can observe.
type tailResult struct {
	next      uint64
	truncated bool
	units     []tailUnit
}

// readTailN runs ReadTail(from), stopping after maxUnits units (0 reads
// to the end of the log).
func readTailN(t *testing.T, eng Engine, from uint64, maxUnits int) tailResult {
	t.Helper()
	var res tailResult
	next, err := eng.ReadTail(from, func(start uint64, b RawBatch) error {
		u := tailUnit{id: b.ID, start: start}
		for _, p := range b.Payloads {
			u.payloads = append(u.payloads, string(p))
		}
		res.units = append(res.units, u)
		if len(res.units) == maxUnits {
			return ErrStopTail
		}
		return nil
	})
	if errors.Is(err, ErrTailTruncated) {
		res.truncated = true
	} else if err != nil {
		t.Fatalf("ReadTail(%d): %v", from, err)
	}
	res.next = next
	return res
}

// headerWalk opens dir the way another process would: read-only, so
// with no offset index — every ReadTail on it walks from the segment
// header, which is the answer the index may never change.
func headerWalk(t *testing.T, dir string) *FS {
	t.Helper()
	return openT(t, FSOptions{Dir: dir, ReadOnly: true, Logf: func(string, ...any) {}})
}

func markCount(f *FS) int {
	f.markMu.Lock()
	defer f.markMu.Unlock()
	n := 0
	for _, ms := range f.marks {
		n += len(ms)
	}
	return n
}

// TestReadTailIndexDifferential: the offset index can only skip work,
// never change the answer. Seeded mixes of bare records and 1–300
// record groups go into an FS engine and a Mem engine alike, across
// segment sizes below, around and far above the mark spacing, with
// rotations, a checkpoint prune and a Reset; at every stage, for every
// replay point sampled (unit boundaries and mid-unit), the writer's
// indexed ReadTail must match a header walk of the same directory and
// the Mem engine unit for unit, byte for byte.
func TestReadTailIndexDifferential(t *testing.T) {
	configs := []struct {
		name     string
		segBytes int64
		records  int // per stage
		every    int // replay points: every `every`th index (plus all unit boundaries)
	}{
		{"tiny-segments", 16 << 10, 700, 1},
		{"few-marks-per-segment", 300 << 10, 3000, 7},
		{"default-segment", 0, 6000, 41},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 2; seed++ {
			cfg, seed := cfg, seed
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				w := openT(t, FSOptions{Dir: dir, SegmentBytes: cfg.segBytes, Mode: FsyncOff, KeepCheckpoints: 1, Logf: func(string, ...any) {}})
				recoverT(t, w, 0)
				m := NewMem()
				m.retain = 1
				if _, err := m.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
					t.Fatal(err)
				}
				var (
					end    uint64   // next record index, both engines
					bounds []uint64 // unit start indices still in the log
				)
				appendMix := func(n int) {
					stop := end + uint64(n)
					for end < stop {
						b := Batch{}
						switch k := rng.Intn(10); {
						case k < 3: // bare record
							b.Records = mkRecs(int(end), int(end)+1)
						case k < 5: // unnamed group
							b.Records = mkRecs(int(end), int(end)+2+rng.Intn(40))
						default:
							b.ID = fmt.Sprintf("b-%d", end)
							b.Records = mkRecs(int(end), int(end)+1+rng.Intn(300))
						}
						for _, eng := range []Engine{w, m} {
							if err := eng.Append(b); err != nil {
								t.Fatal(err)
							}
						}
						bounds = append(bounds, end)
						end += uint64(len(b.Records))
						if rng.Intn(25) == 0 {
							if err := w.Rotate(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				// check compares the three engines over the retained log.
				check := func(stage string, writer *FS) {
					t.Helper()
					ref := headerWalk(t, dir)
					defer ref.Close()
					segs, err := ref.listSegments()
					if err != nil || len(segs) == 0 {
						t.Fatalf("%s: segments: %v, %v", stage, segs, err)
					}
					oldest := segs[0].first
					froms := map[uint64]bool{oldest: true, end: true}
					for _, b := range bounds {
						for _, f := range []uint64{b - 1, b, b + 1} {
							if f >= oldest && f <= end {
								froms[f] = true
							}
						}
					}
					for f := oldest; f <= end; f += uint64(cfg.every) {
						froms[f] = true
					}
					for from := range froms {
						maxUnits := 3
						if from%16 == 0 {
							maxUnits = 0 // to the end of the log
						}
						want := readTailN(t, ref, from, maxUnits)
						got := readTailN(t, writer, from, maxUnits)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: from %d: indexed read differs from header walk:\n got next=%d truncated=%v %d units\nwant next=%d truncated=%v %d units",
								stage, from, got.next, got.truncated, len(got.units), want.next, want.truncated, len(want.units))
						}
						// Mem prunes by unit, FS by segment, so FS may retain more;
						// where both have the data it must be the same data.
						if mres := readTailN(t, m, from, maxUnits); !mres.truncated && !reflect.DeepEqual(mres, want) {
							t.Fatalf("%s: from %d: FS differs from Mem: next %d vs %d, %d vs %d units",
								stage, from, want.next, mres.next, len(want.units), len(mres.units))
						}
					}
					if oldest > 0 {
						if got := readTailN(t, writer, oldest-1, 1); !got.truncated {
							t.Fatalf("%s: read below the pruned floor %d not truncated", stage, oldest)
						}
					}
				}

				appendMix(cfg.records)
				check("appended", w)

				// Checkpoint at a unit boundary two thirds in: whole segments
				// below it go, with their marks.
				cpAt := bounds[len(bounds)*2/3]
				for _, eng := range []Engine{w, m} {
					if err := eng.Checkpoint(&Checkpoint{Records: cpAt, Sections: map[string][]byte{}}); err != nil {
						t.Fatal(err)
					}
				}
				appendMix(cfg.records / 2)
				check("pruned", w)
				w.markMu.Lock()
				for seg := range w.marks {
					if _, err := os.Stat(filepath.Join(dir, "wal", fmt.Sprintf("seg-%016x.wal", seg))); err != nil {
						t.Errorf("marks kept for pruned segment %d: %v", seg, err)
					}
				}
				w.markMu.Unlock()

				// Reset onto an index inside the old log: segment names can
				// repeat, old marks must not survive.
				resetTo := end / 2
				for _, eng := range []Engine{w, m} {
					if err := eng.Reset(resetTo); err != nil {
						t.Fatal(err)
					}
				}
				if n := markCount(w); n != 0 {
					t.Fatalf("%d marks survive Reset", n)
				}
				end, bounds = resetTo, nil
				appendMix(cfg.records)
				check("reset", w)
				if cfg.segBytes != 16<<10 && markCount(w) == 0 {
					t.Fatal("no marks recorded: the test is not exercising the index")
				}

				// A restarted writer rebuilds the index as recovery walks the
				// log; it must answer like the one that wrote it.
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if n := markCount(w); n != 0 {
					t.Fatalf("%d marks survive Close", n)
				}
				w2 := openT(t, FSOptions{Dir: dir, SegmentBytes: cfg.segBytes, Mode: FsyncOff, Logf: func(string, ...any) {}})
				defer w2.Close()
				if _, info := recoverT(t, w2, resetTo); info.NextIndex != end {
					t.Fatalf("recovered next = %d, want %d", info.NextIndex, end)
				}
				check("recovered", w2)
			})
		}
	}
}

// TestReadTailWorkBound: reading the last 256 records of an 8 MiB
// segment decodes the bytes past the replay point plus at most one mark
// spacing and one unit — asserted on the engine's own scanned-bytes
// counter, not on wall time — both on the engine that wrote the log and
// on one that recovered it. The same read without the index (a header
// walk) decodes the whole segment, which is what this test would see on
// an engine that does not seek.
func TestReadTailWorkBound(t *testing.T) {
	const group = 32
	dir := t.TempDir()
	w := openT(t, FSOptions{Dir: dir, Mode: FsyncOff})
	recoverT(t, w, 0)
	var (
		end       int
		unitBytes int64        // largest unit appended
		walAt     = []int64{0} // WAL bytes before unit k
		recs      = mkRecs(0, group)
	)
	for w.Stats().WALBytes < 8<<20 {
		for i := range recs {
			recs[i] = mkRec(end + i)
		}
		before := w.Stats().WALBytes
		if err := w.Append(Batch{ID: fmt.Sprintf("b-%d", end), Records: recs}); err != nil {
			t.Fatal(err)
		}
		end += group
		after := w.Stats().WALBytes
		walAt = append(walAt, after)
		if after-before > unitBytes {
			unitBytes = after - before
		}
	}
	if w.Stats().Segments != 1 {
		t.Fatalf("log rotated into %d segments; the bound is about one large segment", w.Stats().Segments)
	}
	from := uint64(end - 256)
	wanted := walAt[len(walAt)-1] - walAt[len(walAt)-1-256/group] // bytes at or past `from`

	measure := func(eng *FS) (scanned, shipped uint64) {
		t.Helper()
		before := eng.Stats()
		res := readTailN(t, eng, from, 0)
		after := eng.Stats()
		if res.next != uint64(end) || len(res.units) != 256/group || res.units[0].start != from {
			t.Fatalf("tail from %d: next %d, %d units", from, res.next, len(res.units))
		}
		if after.TailReads != before.TailReads+1 {
			t.Fatalf("TailReads went %d -> %d over one read", before.TailReads, after.TailReads)
		}
		return after.TailScannedBytes - before.TailScannedBytes, after.TailShippedBytes - before.TailShippedBytes
	}
	bound := uint64(wanted + markEveryBytes + unitBytes)
	checkBound := func(who string, eng *FS) {
		t.Helper()
		scanned, shipped := measure(eng)
		if shipped == 0 || shipped > uint64(wanted) {
			t.Fatalf("%s: shipped %d bytes of a %d-byte tail", who, shipped, wanted)
		}
		if scanned < shipped || scanned > bound {
			t.Fatalf("%s: scanned %d bytes to ship %d; want at most %d (tail %d + mark spacing %d + unit %d)",
				who, scanned, shipped, bound, wanted, markEveryBytes, unitBytes)
		}
	}
	checkBound("writer", w)

	ref := headerWalk(t, dir)
	if scanned, _ := measure(ref); scanned < 8<<20 {
		t.Fatalf("header walk scanned %d bytes of an 8 MiB segment; the counter is not measuring the walk", scanned)
	}
	ref.Close()

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, FSOptions{Dir: dir, Mode: FsyncOff})
	defer r.Close()
	if cp, err := r.Recover(); err != nil || cp != nil {
		t.Fatalf("Recover = %+v, %v", cp, err)
	}
	if _, err := r.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	checkBound("recovered", r)
}

// TestReadTailStaleMarks: marks are trusted only as far as the bytes
// bear them out. One that points past the end of a file cut behind the
// engine's back, or into the middle of a frame, finds no valid frame
// and costs a walk from the header — same answer, never an error or a
// partial unit; one for a file that is gone is the usual typed
// truncation.
func TestReadTailStaleMarks(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, FSOptions{Dir: dir, Mode: FsyncOff})
	defer w.Close()
	recoverT(t, w, 0)
	var bounds []tailMark
	for i := 0; i < 40; i += 4 {
		bounds = append(bounds, tailMark{first: uint64(i), off: max(w.Stats().WALBytes, segHeaderSize)})
		if err := w.Append(Batch{ID: fmt.Sprintf("b%d", i), Records: mkRecs(i, i+4)}); err != nil {
			t.Fatal(err)
		}
	}
	ref := headerWalk(t, dir)
	defer ref.Close()
	setMarks := func(ms ...tailMark) {
		w.markMu.Lock()
		w.marks[0] = ms
		w.markMu.Unlock()
	}
	same := func(what string, from uint64) {
		t.Helper()
		want, got := readTailN(t, ref, from, 0), readTailN(t, w, from, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: from %d: got next %d, %d units; header walk says next %d, %d units",
				what, from, got.next, len(got.units), want.next, len(want.units))
		}
	}

	setMarks(bounds[5])
	same("true mark", 30)
	if markCount(w) != 1 {
		t.Fatal("a mark that held was dropped")
	}
	setMarks(tailMark{first: 20, off: bounds[5].off + 3})
	same("mark mid-frame", 30)
	if markCount(w) != 0 {
		t.Fatal("a mark with no valid frame behind it was kept")
	}
	setMarks(tailMark{first: 20, off: 1 << 40})
	same("mark far past the end", 30)

	// The file is cut behind the engine's back, mid-way into its last
	// unit: marks at and past the cut are stale.
	seg := lastSegment(t, dir)
	tearFile(t, seg, int(bounds[9].off)+10)
	setMarks(bounds[5], bounds[9])
	same("mark at a torn unit", 38)
	same("mark before the cut", 30)
	tearFile(t, seg, int(bounds[8].off))
	setMarks(bounds[9])
	same("mark past a truncated end", 36)

	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	setMarks(bounds[5])
	delivered := false
	_, _, err := w.readSegmentUnits(segInfo{path: seg, first: 0}, 30, &delivered, func(uint64, RawBatch) error { return nil })
	if !errors.Is(err, os.ErrNotExist) || delivered {
		t.Fatalf("mark into a pruned file: err=%v delivered=%v", err, delivered)
	}
}
