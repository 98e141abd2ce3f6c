package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/drain"
	"repro/internal/replication"
	"repro/internal/store"
)

// stageHarness measures each layer on its own, in-process and (unless
// the layer spawns its own goroutines) single-threaded, by timing calls
// into the layer's public API in the order a record meets the layers.
// Records travel in 256-record batches, each under one root span with a
// child span per call, so the per-layer numbers are sums over the same
// intervals a traced run writes out. It runs before any child process
// exists, so it has the machine to itself.
//
// The corpus minus its last deltaRecords is the working set; those are
// kept back as the "unseen" records of the delta snapshot.
func (r *run) stageHarness() error {
	c := r.c
	n := c.all.n() - deltaRecords
	if n < minMain {
		return fmt.Errorf("corpus of %d records is too small: raise -records", c.all.n())
	}
	input := float64(len(c.all.slice(0, n)))
	perRec := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(n) }
	r.m["dataset.input_bytes_per_record"] = input / float64(n)

	bodies, err := makeBodies(&c.all, 0, n, batchBody, true, "stage")
	if err != nil {
		return err
	}

	// ---- Ingest path, batch by batch ----
	eng, err := openStore(filepath.Join(r.dir, "stage-wal"))
	if err != nil {
		return err
	}
	defer eng.Close()
	// An engine wants its recovery calls before the first append; the
	// servers below make them themselves.
	if _, err := eng.Recover(); err != nil {
		return err
	}
	if _, err := eng.Tail(0, func(uint64, *dataset.Record) error { return nil }); err != nil {
		return err
	}
	var (
		dec      dataset.Decoder
		recs     = make([]dataset.Record, batchBody)
		out      = make([]dataset.Record, batchBody)
		raw      bytes.Buffer
		zr       = new(gzip.Reader)
		pipe     = dataset.NewPipe(1024)
		inc      = analysis.NewIncremental(analysis.DefaultPipelineConfig())
		builders [analysis.NumStreams]*analysis.PipelineBuilder
		parsers  [analysis.NumStreams]*drain.Parser
		spent    = map[string]time.Duration{}
		syncs    sample
		ndrLines int
	)
	for s := range builders {
		builders[s] = analysis.NewPipelineBuilder(analysis.DefaultPipelineConfig())
		parsers[s] = drain.New(drain.DefaultConfig())
	}
	var stepErr error
	for bi := range bodies {
		b := &bodies[bi]
		root := r.tr.root("stage.batch", b.id)
		step := func(name string, fn func()) {
			spent[name] += root.timed(name, fn)
		}
		k := b.records
		step("dataset.gunzip", func() {
			raw.Reset()
			if stepErr = zr.Reset(bytes.NewReader(b.data)); stepErr == nil {
				_, stepErr = raw.ReadFrom(zr)
			}
		})
		step("dataset.readahead_gunzip", func() {
			if stepErr != nil {
				return
			}
			if stepErr = zr.Reset(bytes.NewReader(b.data)); stepErr == nil {
				ra := dataset.NewReadAhead(zr, 4)
				_, stepErr = io.Copy(io.Discard, ra)
				ra.Close()
			}
		})
		step("dataset.decode", func() {
			rest := raw.Bytes()
			for i := 0; i < k && stepErr == nil; i++ {
				nl := bytes.IndexByte(rest, '\n')
				stepErr = dec.Decode(rest[:nl], &recs[i])
				rest = rest[nl+1:]
			}
		})
		step("dataset.parallel_decode", func() {
			pr := dataset.NewParallelReader(bytes.NewReader(raw.Bytes()), 0)
			for {
				if _, ok := pr.NextBatch(); !ok {
					break
				}
			}
			if stepErr == nil {
				stepErr = pr.Err()
			}
			pr.Close()
		})
		if stepErr != nil {
			return fmt.Errorf("batch %s: %w", b.id, stepErr)
		}
		step("analysis.owner", func() {
			for i := 0; i < k; i++ {
				ownerSink += analysis.OwnerOf(&recs[i], clusterShards)
			}
		})
		step("dataset.encode", func() {
			for i := 0; i < k && stepErr == nil; i++ {
				_, stepErr = recs[i].MarshalJSON()
			}
		})
		step("store.append", func() {
			if stepErr == nil {
				stepErr = eng.Append(store.Batch{ID: b.id, Records: recs[:k]})
			}
		})
		syncs = append(syncs, ms(root.timed("store.sync", func() {
			if stepErr == nil {
				stepErr = eng.Sync()
			}
		})))
		step("dataset.pipe", func() {
			if _, err := pipe.WriteBatch(recs[:k]); err != nil && stepErr == nil {
				stepErr = err
			}
			pipe.NextBatch(out)
		})
		step("analysis.fold", func() { inc.AddBatch(out[:k]) })
		step("analysis.train", func() {
			for i := 0; i < k; i++ {
				builders[analysis.StreamOf(&out[i])].Add(&out[i])
			}
		})
		step("drain.train", func() {
			for i := 0; i < k; i++ {
				p := parsers[analysis.StreamOf(&out[i])]
				for _, line := range out[i].DeliveryResult {
					if !strings.HasPrefix(line, "2") {
						p.Train(line)
						ndrLines++
					}
				}
			}
		})
		root.end()
		if stepErr != nil {
			return fmt.Errorf("batch %s: %w", b.id, stepErr)
		}
	}
	for name, d := range spent {
		if name != "drain.train" {
			r.m[name+"_ns_per_record"] = perRec(d)
		}
	}
	templates := 0
	for _, p := range parsers {
		templates += p.NumGroups()
	}
	r.m["drain.train_ns_per_line"] = float64(spent["drain.train"].Nanoseconds()) / float64(max(ndrLines, 1))
	r.m["drain.templates"] = float64(templates)
	r.m["store.sync_ms_p50"] = syncs.pct(50)
	r.m["store.sync_ms_p95"] = syncs.pct(95)
	r.m["store.wal_bytes_per_input_byte"] = float64(eng.Stats().WALBytes) / input
	serial := spent["dataset.decode"] + spent["dataset.pipe"] + spent["analysis.fold"] + spent["analysis.train"]
	r.m["stage.serial_ns_per_record_mem"] = perRec(serial)
	r.m["stage.serial_ns_per_record_durable"] = perRec(serial+spent["dataset.gunzip"]+spent["store.append"]) + syncs.sum()*1e6/float64(n)

	// Decode allocations: one tight pass, nothing else running.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		line := c.all.slice(i, i+1)
		if err := dec.Decode(line[:len(line)-1], &recs[0]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	r.m["dataset.decode_allocs_per_record"] = float64(after.Mallocs-before.Mallocs) / float64(n)

	// ---- WAL read side and replication framing ----
	root := r.tr.root("stage.replication", "")
	var units []replication.Unit
	r.m["store.readtail_end_ms"] = ms(root.timed("store.readtail_end", func() {
		_, err = eng.ReadTail(uint64(n-batchBody), func(uint64, store.RawBatch) error { return nil })
	}))
	if err != nil {
		return err
	}
	if _, err := eng.ReadTail(0, func(start uint64, b store.RawBatch) error {
		units = append(units, replication.Unit{Start: start, ID: b.ID, Payloads: b.Payloads})
		return nil
	}); err != nil {
		return err
	}
	var wire bytes.Buffer
	r.m["replication.frame_encode_ns_per_record"] = perRec(root.timed("replication.frame_encode", func() {
		var tw *replication.TailWriter
		if tw, err = replication.NewTailWriter(&wire, 0); err != nil {
			return
		}
		for i := range units {
			if err = tw.Unit(units[i].Start, units[i].ID, units[i].Payloads); err != nil {
				return
			}
		}
		err = tw.End(uint64(n), 1)
	}))
	if err != nil {
		return err
	}
	decoded := 0
	r.m["replication.frame_decode_ns_per_record"] = perRec(root.timed("replication.frame_decode", func() {
		var tr *replication.TailReader
		if tr, err = replication.NewTailReader(&wire); err != nil {
			return
		}
		for {
			u, end, e := tr.Next()
			if e != nil || end != nil {
				err = e
				return
			}
			decoded += len(u.Payloads)
		}
	}))
	if err != nil {
		return err
	}
	if decoded != n {
		return fmt.Errorf("BRTL round trip carried %d of %d records", decoded, n)
	}
	standbyEng, err := openStore(filepath.Join(r.dir, "stage-standby"))
	if err != nil {
		return err
	}
	standby, err := bounced.New(bounced.Config{Standby: true, Store: standbyEng})
	if err != nil {
		return err
	}
	r.m["bounced.apply_ns_per_record"] = perRec(root.timed("bounced.apply", func() {
		for i := range units {
			if err = standby.ApplyBatch(&units[i]); err != nil {
				return
			}
		}
		waitServer(standby, n)
	}))
	standby.Abort()
	root.end()
	if err != nil {
		return err
	}
	units = nil

	// ---- The server's own wrappers around decode and fold ----
	root = r.tr.root("stage.server", "")
	mem, err := bounced.New(bounced.Config{})
	if err != nil {
		return err
	}
	r.m["bounced.ingestbatch_ns_per_record"] = perRec(root.timed("bounced.ingestbatch", func() {
		for i := 0; i < n && err == nil; i += batchBody {
			_, err = mem.IngestBatch(c.recs[i:min(i+batchBody, n)])
		}
		waitServer(mem, n)
	}))
	mem.Abort()
	if err != nil {
		return err
	}
	// The excess of this over decode + ingestbatch is HTTP framing.
	web, err := bounced.New(bounced.Config{})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(web.Handler())
	plain, err := makeBodies(&c.all, 0, n, batchBody, false, "")
	if err == nil {
		cn, quiet := newConn(), &loadgen{} // its requests are not workload operations
		r.m["bounced.http_post_ns_per_record"] = perRec(root.timed("bounced.http_post", func() {
			for i := range plain {
				if _, _, err = quiet.post(r.ctx, cn, ts.URL, &plain[i]); err != nil {
					return
				}
			}
			waitServer(web, n)
		}))
		cn.CloseIdleConnections()
	}
	ts.Close()
	web.Abort()
	root.end()
	if err != nil {
		return err
	}

	// ---- Report path: snapshot, classify, detect, render ----
	root = r.tr.root("stage.report", "")
	var a *analysis.Analysis
	r.m["analysis.snapshot_cold_ms"] = ms(root.timed("analysis.snapshot_cold", func() { a = inc.Snapshot(nil) }))
	cx := a.Pipeline.NewClassifyCtx()
	r.m["analysis.classify_ns_per_record"] = perRec(root.timed("analysis.classify", func() {
		for i := 0; i < n; i++ {
			cx.ClassifyRecord(a.Records.At(i))
		}
	}))
	// Template matching and the EBRC on the raw lines, a bounded sample:
	// Predict tokenises and scores every class per line.
	const lineSample = 20000
	type ndrLine struct {
		stream int
		text   string
	}
	var sampleLines []ndrLine
	for i := 0; i < n && len(sampleLines) < lineSample; i++ {
		rec := a.Records.At(i)
		for _, line := range rec.DeliveryResult {
			if !strings.HasPrefix(line, "2") {
				sampleLines = append(sampleLines, ndrLine{analysis.StreamOf(rec), line})
			}
		}
	}
	matchers := make([]*drain.Matcher, len(a.Pipeline.Shards))
	for s, p := range a.Pipeline.Shards {
		matchers[s] = p.Parser.Matcher()
	}
	perLine := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / float64(max(len(sampleLines), 1))
	}
	r.m["drain.match_ns_per_line"] = perLine(root.timed("drain.match", func() {
		for _, l := range sampleLines {
			matchers[l.stream].Match(l.text)
		}
	}))
	r.m["ebrc.predict_ns_per_line"] = perLine(root.timed("ebrc.predict", func() {
		for _, l := range sampleLines {
			if cl := a.Pipeline.Shards[l.stream].Classifier; cl != nil {
				cl.Predict(l.text)
			}
		}
	}))
	st := &bounce.Study{Records: a.Records, Analysis: a}
	r.m["analysis.detect_ms"] = ms(root.timed("analysis.detect", func() { st.Detections = a.Detect() }))
	render := func(name string, sections ...bounce.Section) {
		d := root.timed(name, func() {
			if e := st.WriteReport(io.Discard, sections); e != nil && err == nil {
				err = e
			}
		})
		r.m[name+"_ms"] = ms(d)
	}
	render("bounce.render_all", bounce.AllSections...)
	render("bounce.render_advice", bounce.SecAdvice)
	render("bounce.render_fig7", bounce.SecFig7)
	render("bounce.render_dashboard", bounce.SecOverview, bounce.SecTable1, bounce.SecTable2, bounce.SecFig5, bounce.SecFig8)
	if err != nil {
		return err
	}

	// ---- Partial aggregates: what a shard ships and a coordinator merges ----
	var ps *analysis.PartialSet
	var blob []byte
	r.m["analysis.partial_build_ms"] = ms(root.timed("analysis.partial_build", func() { ps = a.Partials() }))
	r.m["analysis.partial_marshal_ms"] = ms(root.timed("analysis.partial_marshal", func() { blob = ps.Marshal() }))
	r.m["analysis.partial_bytes_per_input_byte"] = float64(len(blob)) / input
	r.m["analysis.partial_unmarshal_ms"] = ms(root.timed("analysis.partial_unmarshal", func() {
		_, err = analysis.UnmarshalPartialSet(blob, nil)
	}))
	if err != nil {
		return err
	}
	halves := make([]*analysis.PartialSet, clusterShards)
	for s, part := range splitRecords(c.recs[:n], clusterShards) {
		halves[s] = analysis.New(part, nil).Partials()
	}
	r.m["analysis.partial_merge_ms"] = ms(root.timed("analysis.partial_merge", func() {
		for _, h := range halves[1:] {
			if e := halves[0].Merge(h); e != nil && err == nil {
				err = e
			}
		}
	}))
	if err != nil {
		return err
	}
	r.m["bounce.render_partial_ms"] = ms(root.timed("bounce.render_partial", func() {
		err = bounce.NewPartialStudy(halves[0]).WriteReport(io.Discard, bounce.PartialSections)
	}))
	if err != nil {
		return err
	}

	// ---- Checkpoint and recovery ----
	var state *analysis.IncrementalState
	r.m["analysis.state_capture_ms"] = ms(root.timed("analysis.state_capture", func() { state = inc.CaptureState() }))
	r.m["analysis.state_marshal_ms"] = ms(root.timed("analysis.state_marshal", func() { blob, err = state.MarshalBinary() }))
	if err != nil {
		return err
	}
	r.m["analysis.state_bytes_per_input_byte"] = float64(len(blob)) / input
	r.m["store.checkpoint_write_ms"] = ms(root.timed("store.checkpoint_write", func() {
		err = eng.Checkpoint(&store.Checkpoint{Records: uint64(n), Sections: map[string][]byte{"incremental": blob}})
	}))
	if err != nil {
		return err
	}
	r.m["analysis.state_restore_ms"] = ms(root.timed("analysis.state_restore", func() {
		_, err = analysis.RestoreIncremental(blob)
	}))
	if err != nil {
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	var reopened *store.FS
	r.m["store.recover_open_ms"] = ms(root.timed("store.recover_open", func() {
		if reopened, err = store.Open(store.FSOptions{Dir: filepath.Join(r.dir, "stage-wal"), ReadOnly: true}); err == nil {
			_, err = reopened.Recover()
		}
	}))
	if err != nil {
		return err
	}
	r.m["store.tail_ns_per_record"] = perRec(root.timed("store.tail", func() {
		_, err = reopened.Tail(0, func(uint64, *dataset.Record) error { return nil })
	}))
	reopened.Close()
	if err != nil {
		return err
	}
	// The server's checkpoint and boot-time recovery, shaped like
	// durable-batch: checkpoint at 90%, crash after 100%.
	durDir := filepath.Join(r.dir, "stage-durable")
	durEng, err := openStore(durDir)
	if err != nil {
		return err
	}
	dur, err := bounced.New(bounced.Config{Store: durEng})
	if err != nil {
		return err
	}
	feed := func(lo, hi int) {
		for i := lo; i < hi && err == nil; i += batchBody {
			_, err = dur.IngestBatch(c.recs[i:min(i+batchBody, hi)])
		}
		waitServer(dur, hi)
	}
	cut := n * 9 / 10
	feed(0, cut)
	if err == nil {
		r.m["bounced.checkpoint_now_ms"] = ms(root.timed("bounced.checkpoint_now", func() { err = dur.CheckpointNow() }))
	}
	feed(cut, n)
	dur.Abort()
	if err != nil {
		return err
	}
	r.m["bounced.recover_ms"] = ms(root.timed("bounced.recover", func() {
		if durEng, err = openStore(durDir); err == nil {
			dur, err = bounced.New(bounced.Config{Store: durEng})
		}
	}))
	if err != nil {
		return err
	}
	ri := dur.Recovery()
	dur.Abort()
	if ri.CheckpointRecords != uint64(cut) || ri.Replayed != n-cut {
		return fmt.Errorf("recovery restored a checkpoint at %d and replayed %d, want %d and %d", ri.CheckpointRecords, ri.Replayed, cut, n-cut)
	}

	// ---- Snapshots after new records, and memory per record ----
	inc.AddBatch(c.recs[n:])
	r.m["analysis.snapshot_delta_ms"] = ms(root.timed("analysis.snapshot_delta", func() { inc.Snapshot(nil) }))
	inc.AddBatch(c.recs[:deltaRecords])
	r.m["analysis.snapshot_known_ms"] = ms(root.timed("analysis.snapshot_known", func() { inc.Snapshot(nil) }))
	root.end()

	inc, a, st, ps, state, blob, halves = nil, nil, nil, nil, nil, nil, nil
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	held := analysis.NewIncremental(analysis.DefaultPipelineConfig())
	for i := 0; i < n; i += batchBody {
		held.AddBatch(c.recs[i:min(i+batchBody, n)])
	}
	held.CaptureState() // trains, as the server's trainer would have
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.m["analysis.heap_bytes_per_record"] = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(n)
	runtime.KeepAlive(held)
	return nil
}

// ownerSink keeps the compiler from discarding the OwnerOf calls.
var ownerSink int

// openStore opens a store directory the way cmd/bounced does (-fsync
// batch), with recovery warnings silenced.
func openStore(dir string) (*store.FS, error) {
	return store.Open(store.FSOptions{Dir: dir, Mode: store.FsyncBatch, Logf: func(string, ...any) {}})
}

// waitServer spins until an in-process server has folded n records.
func waitServer(s *bounced.Server, n int) {
	for deadline := time.Now().Add(30 * time.Second); s.Consumed() < uint64(n) && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
}

// splitRecords partitions recs by owning shard, order kept.
func splitRecords(recs []dataset.Record, shards int) [][]dataset.Record {
	out := make([][]dataset.Record, shards)
	for i := range recs {
		own := analysis.OwnerOf(&recs[i], shards)
		out[own] = append(out[own], recs[i])
	}
	return out
}
