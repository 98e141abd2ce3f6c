package analysis

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/drain"
	"repro/internal/ndr"
)

// Durable-checkpoint state for an Incremental: the slab store, the
// popularity counts (rebuilt, not serialized), the per-substream
// pipeline builders (Drain tree + template samples), and the training
// watermark. A restored Incremental continues byte-identically: the
// same records in the same order, the same mined templates in the same
// tree, so every later Snapshot/Finish — and therefore the
// bounced report — matches a process that never died. The storage
// engine (internal/store) treats this blob as an opaque checkpoint
// section; only this package knows its layout.

const incStateVersion = 1

// IncrementalState is a point-in-time capture of an Incremental,
// consistent at a record boundary: the builders are trained to exactly
// Records(), so the WAL replay point is unambiguous.
type IncrementalState struct {
	cfg      PipelineConfig
	view     dataset.Records
	n        int
	builders [NumStreams]*PipelineBuilder
}

// CaptureState snapshots the accumulator for checkpointing without
// stopping ingestion. Like Snapshot it catches training up to the
// store, so the capture is self-consistent; unlike Snapshot it does not
// finish pipelines or classify anything — serialization cost is paid by
// the caller, off every hot path, via MarshalBinary.
func (inc *Incremental) CaptureState() *IncrementalState {
	inc.trainMu.Lock()
	inc.storeMu.Lock()
	n := inc.store.Len()
	view := inc.store.View()
	inc.storeMu.Unlock()
	inc.trainTo(view, n)
	st := &IncrementalState{cfg: inc.b[0].p.cfg, view: view, n: n}
	for s := range inc.b {
		st.builders[s] = inc.b[s].Clone()
	}
	inc.trainMu.Unlock()
	return st
}

// Records reports how many records the capture covers — the WAL index
// replay must resume from.
func (st *IncrementalState) Records() int { return st.n }

// MarshalBinary serializes the capture with the package's stable codec.
func (st *IncrementalState) MarshalBinary() ([]byte, error) {
	e := &enc{}
	e.version(incStateVersion)
	e.intv(st.cfg.TopTemplates)
	e.intv(st.cfg.SamplesPerType)
	e.intv(st.cfg.PredictSample)
	e.u64(st.cfg.Seed)

	e.u64(uint64(st.n))
	for i := 0; i < st.n; i++ {
		e.record(st.view.At(i))
	}
	for s := range st.builders {
		b := st.builders[s]
		e.intv(b.total)
		blob, err := b.p.Parser.MarshalBinary()
		if err != nil {
			return nil, err
		}
		e.bytes(blob)
		e.u64(uint64(len(b.p.groupSamples)))
		for _, gid := range sortedIntKeys(b.p.groupSamples) {
			e.intv(gid)
			e.strList(b.p.groupSamples[gid])
		}
	}
	return e.buf, nil
}

// RestoreIncremental rebuilds an Incremental from a MarshalBinary blob.
// The popularity counts and the list of records that are not clean are
// recomputed from the records (cheaper than storing them, and provably
// consistent); nothing is carried, so the first post-restore snapshot
// runs cold and later ones warm — results are byte-identical either
// way.
func RestoreIncremental(b []byte) (*Incremental, error) {
	d := &dec{b: b}
	d.checkVersion("incremental state", incStateVersion)
	var cfg PipelineConfig
	cfg.TopTemplates = d.intv()
	cfg.SamplesPerType = d.intv()
	cfg.PredictSample = d.intv()
	cfg.Seed = d.u64()
	if d.err != nil {
		return nil, d.err
	}

	inc := NewIncremental(cfg)
	n := d.count()
	var rec dataset.Record
	var scratch recordScratch
	for i := 0; i < n && d.err == nil; i++ {
		d.recordView(&rec, &scratch)
		if d.err != nil {
			break
		}
		if !clean(inc.absorb(&rec)) {
			inc.dirty = append(inc.dirty, int32(i))
		}
	}
	for s := range inc.b {
		total := d.intv()
		parser, err := drain.UnmarshalParser(d.bytes())
		if d.err == nil && err != nil {
			d.err = err
		}
		if d.err != nil {
			return nil, d.err
		}
		p := &Pipeline{
			Parser:         parser,
			cfg:            cfg,
			groupType:      make(map[int]ndr.Type),
			groupAmbiguous: make(map[int]bool),
			groupSamples:   make(map[int][]string),
		}
		ns := d.count()
		for j := 0; j < ns; j++ {
			gid := d.intv()
			p.groupSamples[gid] = d.strList()
		}
		inc.b[s] = &PipelineBuilder{p: p, total: total}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("analysis: %d trailing bytes after incremental state", len(d.b))
	}
	inc.trained = n
	return inc, nil
}

// record serializes one stored record exactly: nanosecond instants and
// the nil-versus-empty distinction of each attempt slice survive the
// round trip (MarshalJSON renders nil as null and empty as []).
func (e *enc) record(r *dataset.Record) {
	e.str(r.From)
	e.str(r.To)
	e.i64(r.StartTime.UnixNano())
	e.i64(r.EndTime.UnixNano())
	e.recStrList(r.FromIP)
	e.recStrList(r.ToIP)
	e.recStrList(r.DeliveryResult)
	e.recI64List(r.DeliveryLatency)
	e.str(r.EmailFlag)
}

// recordScratch backs the attempt slices recordView hands out, reused
// from one record to the next.
type recordScratch struct {
	strs []string
	ints []int64
}

// recordView decodes one record into *r without copying: its strings
// view d's input and its slices view sc, both valid only until the next
// call, so r must be copied (RecordStore.AppendCopy) before then.
func (d *dec) recordView(r *dataset.Record, sc *recordScratch) {
	sc.strs, sc.ints = sc.strs[:0], sc.ints[:0]
	r.From = d.strView()
	r.To = d.strView()
	r.StartTime = time.Unix(0, d.i64()).UTC()
	r.EndTime = time.Unix(0, d.i64()).UTC()
	r.FromIP = d.recStrListView(sc)
	r.ToIP = d.recStrListView(sc)
	r.DeliveryResult = d.recStrListView(sc)
	r.DeliveryLatency = d.recI64ListView(sc)
	r.EmailFlag = d.strView()
}

func (e *enc) recStrList(s []string) {
	e.boolv(s != nil)
	if s != nil {
		e.strList(s)
	}
}

// recStrListView decodes a recStrList as views appended to sc.strs.
func (d *dec) recStrListView(sc *recordScratch) []string {
	if !d.boolv() {
		return nil
	}
	n := d.count()
	if n == 0 {
		return []string{} // present but empty, as MarshalJSON's []
	}
	lo := len(sc.strs)
	for i := 0; i < n && d.err == nil; i++ {
		sc.strs = append(sc.strs, d.strView())
	}
	return sc.strs[lo:len(sc.strs):len(sc.strs)]
}

// recI64List keeps the nil/empty distinction i64List drops.
func (e *enc) recI64List(v []int64) {
	e.boolv(v != nil)
	if v != nil {
		e.u64(uint64(len(v)))
		for _, x := range v {
			e.i64(x)
		}
	}
}

// recI64ListView decodes a recI64List into sc.ints.
func (d *dec) recI64ListView(sc *recordScratch) []int64 {
	if !d.boolv() {
		return nil
	}
	n := d.count()
	if n == 0 {
		return []int64{}
	}
	lo := len(sc.ints)
	for i := 0; i < n && d.err == nil; i++ {
		sc.ints = append(sc.ints, d.i64())
	}
	return sc.ints[lo:len(sc.ints):len(sc.ints)]
}
