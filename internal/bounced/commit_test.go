package bounced_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/store"
)

// logUnit is one WAL unit copied out of a ReadTail callback.
type logUnit struct {
	start    uint64
	id       string
	payloads [][]byte
}

func readUnits(t *testing.T, eng store.Engine, from uint64) []logUnit {
	t.Helper()
	var units []logUnit
	_, err := eng.ReadTail(from, func(start uint64, b store.RawBatch) error {
		u := logUnit{start: start, id: b.ID}
		for _, p := range b.Payloads {
			u.payloads = append(u.payloads, append([]byte(nil), p...))
		}
		units = append(units, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func applyUnits(t *testing.T, standby *bounced.Server, units []logUnit) {
	t.Helper()
	for _, u := range units {
		if err := standby.ApplyBatch(&replication.Unit{Start: u.start, ID: u.id, Payloads: u.payloads}); err != nil {
			t.Fatalf("apply unit at %d (%q): %v", u.start, u.id, err)
		}
	}
}

// TestCommitConcurrentDuplicateID: two requests carrying one X-Batch-Id
// that overlap between the dedup lookup and the commit must fold the
// batch once. Request A is held mid-body (past the lookup, before its
// commit) while B posts the same ID whole; A then finishes and must be
// answered as the replay it turned into.
func TestCommitConcurrentDuplicateID(t *testing.T) {
	records, env := fixture(t)
	recs := records[:64]
	body := encodeNDJSON(t, recs)
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			r := row{cfg: bounced.Config{Env: env}}
			if durable {
				r.store = memEngine
			}
			n := single(t, r)
			// The handler reads the body only after its dedup lookup, so
			// the first body read of the first request (A) says A is past
			// the lookup.
			reading := make(chan struct{})
			var first sync.Once
			h := n.srv.Handler()
			url := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				first.Do(func() { r.Body = &signalBody{ReadCloser: r.Body, ch: reading} })
				h.ServeHTTP(w, r)
			}))

			pr, pw := io.Pipe()
			replyA := make(chan ingestReply, 1)
			go func() {
				ir, err := try(url, batch{id: "dup-1", stream: pr})
				if err != nil {
					t.Error(err)
				}
				replyA <- ir
			}()
			if _, err := pw.Write(body[:len(body)/2]); err != nil {
				t.Fatal(err)
			}
			<-reading
			if ir := send(t, url, batch{id: "dup-1", raw: body}); ir.status != http.StatusOK || ir.Deduped || ir.Accepted != len(recs) {
				t.Fatalf("request B: status %d deduped %v accepted %d: %s", ir.status, ir.Deduped, ir.Accepted, ir.Error)
			}
			pw.Write(body[len(body)/2:])
			pw.Close()
			if ir := <-replyA; ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(recs) {
				t.Fatalf("request A: status %d deduped %v accepted %d, want a dedup replay of %d: %s",
					ir.status, ir.Deduped, ir.Accepted, len(recs), ir.Error)
			}
			// Both requests are answered, so accepted is final; consumed
			// catches up to it.
			waitConsumed(t, n.srv, len(recs))
			var st map[string]any
			if get(t, n.url+"/v1/stats", http.StatusOK, &st); st["records_deduped"] != float64(len(recs)) || st["accepted"] != float64(len(recs)) {
				t.Fatalf("accepted %v deduped %v, want %d each: the batch folded twice", st["accepted"], st["records_deduped"], len(recs))
			}
			if durable {
				if units := readUnits(t, n.eng, 0); len(units) != 1 || units[0].id != "dup-1" {
					t.Fatalf("log holds %d units, want the one dup-1 unit", len(units))
				}
			}
		})
	}
}

// signalBody closes ch on the first Read.
type signalBody struct {
	io.ReadCloser
	ch   chan struct{}
	once sync.Once
}

func (b *signalBody) Read(p []byte) (int, error) {
	b.once.Do(func() { close(b.ch) })
	return b.ReadCloser.Read(p)
}

// TestCommitAcceptedPrefixIsSynced: a streamed body that fails on line
// 3 reports accepted: 2, and those two records must be as durable and
// as visible to standbys as a 200's — fsynced before the 400 leaves,
// and announced to the tracker so a WAL long-poll returns them at once
// instead of sitting out its wait.
func TestCommitAcceptedPrefixIsSynced(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{store: memEngine, cfg: bounced.Config{Env: env}})

	body := append(encodeNDJSON(t, records[:2]), "{not json\n"...)
	body = append(body, encodeNDJSON(t, records[2:3])...)
	fsyncs := n.eng.Stats().Fsync.Count
	ir := send(t, n.url, batch{raw: body})
	if ir.status != http.StatusBadRequest || ir.Line != 3 || ir.Accepted != 2 {
		t.Fatalf("status %d line %d accepted %d, want 400 at line 3 with 2 accepted", ir.status, ir.Line, ir.Accepted)
	}
	if got := n.eng.Stats().Fsync.Count; got <= fsyncs {
		t.Errorf("fsyncs still %d after a reply reporting accepted: 2", got)
	}
	start := time.Now()
	tail := get(t, n.url+replication.PathWAL+"?from=0&wait=5s", http.StatusOK, nil)
	tr, err := replication.NewTailReader(bytes.NewReader(tail))
	if err != nil {
		t.Fatal(err)
	}
	shipped := 0
	for {
		u, end, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if end != nil {
			break
		}
		shipped += len(u.Payloads)
	}
	if took := time.Since(start); shipped != 2 || took > 2*time.Second {
		t.Fatalf("long-poll shipped %d records in %s, want the 2 accepted ones without waiting", shipped, took)
	}
}

// TestApplyBatchLargerThanQueue: units ship whole, and a primary bounds
// them by its own -queue only, so a standby must take a unit larger
// than its queue instead of waiting forever for room that cannot come.
func TestApplyBatchLargerThanQueue(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{store: memEngine, cfg: bounced.Config{Env: env, Standby: true, QueueDepth: 8}})
	standby := n.srv
	unit := &replication.Unit{ID: "big"}
	for i := range records[:100] {
		p, err := records[i].MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		unit.Payloads = append(unit.Payloads, p)
	}
	done := make(chan error, 1)
	go func() { done <- standby.ApplyBatch(unit) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyBatch of a 100-record unit hangs on a standby with QueueDepth 8")
	}
	waitConsumed(t, standby, 100)
	if units := readUnits(t, n.eng, 0); len(units) != 1 || len(units[0].payloads) != 100 {
		t.Fatalf("standby log holds %d units, want the one whole unit", len(units))
	}
}

// TestSourceEquivalence is the differential behind "one commit path":
// one seeded schedule of streamed bodies, X-Batch-Id batches (plain and
// gzip) and immediate retries of acked IDs goes to a memory node and a
// durable node over HTTP, and to standbys through ApplyBatch of the
// durable node's log. Every node must serve the batch report byte for
// byte and agree on the counters; the standby's log must be the
// primary's unit for unit — "a promoted standby equals its primary"
// asserted on the log, not only on the report. A second standby joins
// from a checkpoint that falls inside a unit, so that unit straddles
// its log end.
func TestSourceEquivalence(t *testing.T) {
	records, env := fixture(t)
	if len(records) > 3000 {
		records = records[:3000]
	}
	cfg := bounced.Config{Env: env, QueueDepth: 8192}
	standbyCfg := bounced.Config{Env: env, QueueDepth: 8192, Standby: true}
	mem := single(t, row{cfg: cfg})
	dur := single(t, row{store: memEngine, cfg: cfg})

	rng := rand.New(rand.NewSource(13))
	var last batch // the last acked X-Batch-Id batch
	lastCount, deduped := 0, 0
	for off, step := 0, 0; off < len(records); step++ {
		n := min(1+rng.Intn(400), len(records)-off)
		b := batch{recs: records[off : off+n]}
		switch kind := rng.Intn(4); {
		case kind == 3 && last.id != "":
			// A retry of the last acked ID, sent again as it was.
			b, n = last, 0
			deduped += lastCount
		case kind == 2:
			b.gzip = true
			fallthrough
		case kind == 1:
			b.id = fmt.Sprintf("se-%d", step)
			last, lastCount = b, n
		}
		mr, dr := send(t, mem.url, b), send(t, dur.url, b)
		mr.header, dr.header = nil, nil
		if !reflect.DeepEqual(mr, dr) || mr.status != http.StatusOK || mr.Deduped != (n == 0) {
			t.Fatalf("step %d (id %q, %d records): memory node %+v, durable node %+v", step, b.id, n, mr, dr)
		}
		off += n
	}
	waitConsumed(t, mem.srv, len(records))
	waitConsumed(t, dur.srv, len(records))
	primaryLog := readUnits(t, dur.eng, 0)

	standby := single(t, row{store: memEngine, cfg: standbyCfg})
	applyUnits(t, standby.srv, primaryLog)
	waitConsumed(t, standby.srv, len(records))

	want := batchReport(t, records, env, bounce.AllSections)
	for name, n := range map[string]*node{"memory": mem, "durable": dur, "standby": standby} {
		if got := get(t, n.url+reportAll, http.StatusOK, nil); !bytes.Equal(got, want) {
			t.Errorf("%s node report differs from batch (%d vs %d bytes)", name, len(got), len(want))
		}
		var st map[string]any
		get(t, n.url+"/v1/stats", http.StatusOK, &st)
		wantDedup := float64(deduped)
		if name == "standby" {
			wantDedup = 0 // retries go to the primary
		}
		if st["accepted"] != float64(len(records)) || st["consumed"] != float64(len(records)) || st["records_deduped"] != wantDedup {
			t.Errorf("%s node: accepted %v consumed %v deduped %v, want %d/%d/%v",
				name, st["accepted"], st["consumed"], st["records_deduped"], len(records), len(records), wantDedup)
		}
	}
	standbyLog := readUnits(t, standby.eng, 0)
	if len(standbyLog) != len(primaryLog) {
		t.Fatalf("standby log has %d units, primary %d", len(standbyLog), len(primaryLog))
	}
	for i, p := range primaryLog {
		s := standbyLog[i]
		if s.start != p.start || s.id != p.id || !bytes.Equal(bytes.Join(s.payloads, nil), bytes.Join(p.payloads, nil)) || len(s.payloads) != len(p.payloads) {
			t.Fatalf("unit %d: standby (%d, %q, %d records) vs primary (%d, %q, %d records)",
				i, s.start, s.id, len(s.payloads), p.start, p.id, len(p.payloads))
		}
	}
	// The replicated dedup window: the promoted standby acks a retry
	// with the count the primary admitted.
	standby.srv.Promote(2, "test")
	if ir := send(t, standby.url, last); ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != lastCount {
		t.Fatalf("retry of %q on the promoted standby: %+v, want deduped with %d", last.id, ir, lastCount)
	}

	// The straddle: a checkpoint at a record count inside unit u, as a
	// resyncing standby would be shipped, then the log from u on.
	var u logUnit
	for _, u = range primaryLog {
		if u.id != "" && len(u.payloads) >= 2 {
			break
		}
	}
	at := int(u.start) + len(u.payloads)/2
	helper := single(t, row{store: memEngine, cfg: cfg})
	if _, err := helper.srv.IngestBatch(records[:at]); err != nil {
		t.Fatal(err)
	}
	waitConsumed(t, helper.srv, at)
	if err := helper.srv.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cp, err := helper.eng.Recover()
	if err != nil || cp == nil || cp.Records != uint64(at) {
		t.Fatalf("helper checkpoint: %v, %+v, want one at %d records", err, cp, at)
	}
	late := single(t, row{store: memEngine, cfg: standbyCfg})
	if err := late.srv.ResetTo(cp); err != nil {
		t.Fatal(err)
	}
	rest := readUnits(t, dur.eng, uint64(at))
	if rest[0].start != u.start {
		t.Fatalf("tail from %d starts with the unit at %d, want the straddling one at %d", at, rest[0].start, u.start)
	}
	applyUnits(t, late.srv, rest)
	waitConsumed(t, late.srv, len(records))
	if got := get(t, late.url+reportAll, http.StatusOK, nil); !bytes.Equal(got, want) {
		t.Errorf("late standby report differs from batch (%d vs %d bytes)", len(got), len(want))
	}
	var lateRecs, primaryRecs [][]byte
	for _, lu := range readUnits(t, late.eng, uint64(at)) {
		lateRecs = append(lateRecs, lu.payloads...)
	}
	for _, pu := range primaryLog {
		primaryRecs = append(primaryRecs, pu.payloads...)
	}
	if len(lateRecs) != len(records)-at || !bytes.Equal(bytes.Join(lateRecs, nil), bytes.Join(primaryRecs[at:], nil)) {
		t.Fatalf("late standby log holds %d records past %d, want the primary's %d", len(lateRecs), at, len(records)-at)
	}
	late.srv.Promote(2, "test")
	if ir := send(t, late.url, batch{id: u.id}); ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(u.payloads) {
		t.Fatalf("retry of straddled %q on the late standby: %+v, want deduped with the full %d", u.id, ir, len(u.payloads))
	}
}

// TestClusterShardLineNumbersExact: ownership is checked over whole
// decoded chunks, and the 400 for a foreign-owned record must still
// name its exact line — first, mid-chunk, first line of the reader's
// second block, last — with exactly the lines before it accepted when
// streamed and nothing at all under an X-Batch-Id.
func TestClusterShardLineNumbersExact(t *testing.T) {
	records, env := fixture(t)
	parts := split(records, 2)
	owned, foreign := parts[0], &parts[1][0]
	const readerBlock = 512 << 10 // dataset.ParallelReader's block size
	foreignLine := encodeNDJSON(t, []dataset.Record{*foreign})
	// The first line of block 2 is the one whose newline is the first
	// at or past the block size.
	blockTwo, size := 0, 0
	for i := range owned {
		if size+len(foreignLine) > readerBlock {
			blockTwo = i + 1
			break
		}
		size += len(encodeNDJSON(t, owned[i:i+1]))
	}
	if len(owned) <= 1500 || blockTwo == 0 || blockTwo >= len(owned) {
		t.Fatalf("corpus too small: %d owned records, block 2 at line %d", len(owned), blockTwo)
	}
	for _, k := range []int{1, blockTwo / 2, blockTwo, len(owned)} {
		lines := append([]dataset.Record{}, owned...)
		lines[k-1] = *foreign
		body := encodeNDJSON(t, lines)
		if k == blockTwo {
			pr := dataset.NewParallelReader(bytes.NewReader(body), 1)
			if first, _ := pr.NextBatch(); len(first) != k-1 {
				t.Fatalf("reader's first block holds %d records, want line %d to open block 2", len(first), k)
			}
			pr.Close()
		}
		t.Run(fmt.Sprintf("streamed/line=%d", k), func(t *testing.T) {
			n := single(t, row{cfg: bounced.Config{Env: env, ShardCount: 2, ShardIndex: 0}})
			ir := send(t, n.url, batch{raw: body})
			if ir.status != http.StatusBadRequest || ir.Line != k || ir.Accepted != k-1 {
				t.Fatalf("status %d line %d accepted %d, want 400 at line %d with %d accepted: %s",
					ir.status, ir.Line, ir.Accepted, k, k-1, ir.Error)
			}
			waitConsumed(t, n.srv, k-1)
			if k == 1 {
				return
			}
			got := get(t, n.url+"/v1/report?section=overview", http.StatusOK, nil)
			if want := batchReport(t, lines[:k-1], env, []bounce.Section{bounce.SecOverview}); !bytes.Equal(got, want) {
				t.Fatalf("report over the accepted prefix differs from batch over lines 1..%d", k-1)
			}
		})
		t.Run(fmt.Sprintf("batch/line=%d", k), func(t *testing.T) {
			n := single(t, row{cfg: bounced.Config{Env: env, ShardCount: 2, ShardIndex: 0, QueueDepth: 8192}})
			ir := send(t, n.url, batch{id: "lines-1", declared: len(lines), raw: body})
			if ir.status != http.StatusBadRequest || ir.Line != k || ir.Accepted != 0 || n.srv.Accepted() != 0 {
				t.Fatalf("status %d line %d accepted %d (server %d), want 400 at line %d with nothing admitted: %s",
					ir.status, ir.Line, ir.Accepted, n.srv.Accepted(), k, ir.Error)
			}
			// Re-partitioned, the same ID goes through.
			kept := append(append([]dataset.Record{}, lines[:k-1]...), lines[k:]...)
			ir = send(t, n.url, batch{id: "lines-1", declared: len(kept), recs: kept})
			if ir.status != http.StatusOK || ir.Accepted != len(kept) {
				t.Fatalf("resend without the foreign record: status %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
			}
			waitConsumed(t, n.srv, len(kept))
		})
	}
}
