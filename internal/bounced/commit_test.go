package bounced_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/store"
)

// post sends one /v1/records request: streamed when id is empty, an
// X-Batch-Id batch otherwise, gzip-encoded when gz is set.
func post(t *testing.T, url, id string, body io.Reader, gz bool) ingestReply {
	t.Helper()
	ir, err := tryPost(url, id, body, gz)
	if err != nil {
		t.Fatal(err)
	}
	return ir
}

// tryPost is post for goroutines other than the test's own.
func tryPost(url, id string, body io.Reader, gz bool) (ir ingestReply, err error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/records", body)
	if err != nil {
		return ir, err
	}
	if id != "" {
		req.Header.Set(headerBatchID, id)
	}
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return ir, err
	}
	defer resp.Body.Close()
	ir.status = resp.StatusCode
	return ir, json.NewDecoder(resp.Body).Decode(&ir)
}

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

func waitConsumed(t *testing.T, srv *bounced.Server, n int) {
	t.Helper()
	waitFor(t, 10*time.Second, fmt.Sprintf("consumption of %d records", n), func() bool {
		return srv.Consumed() == uint64(n)
	})
}

// TestCommitConcurrentDuplicateID: two requests carrying one X-Batch-Id
// that overlap between the dedup lookup and the commit must fold the
// batch once. Request A is held mid-body (past the lookup, before its
// commit) while B posts the same ID whole; A then finishes and must be
// answered as the replay it turned into.
func TestCommitConcurrentDuplicateID(t *testing.T) {
	records, env := fixture(t)
	batch := records[:64]
	body := encodeNDJSON(t, batch)
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := bounced.Config{Env: env}
			eng := store.NewMem()
			if durable {
				cfg.Store = eng
			}
			srv := newServer(t, cfg)
			defer srv.Abort()
			// The handler reads the body only after its dedup lookup, so
			// the first body read of the first request (A) says A is past
			// the lookup.
			reading := make(chan struct{})
			var first sync.Once
			h := srv.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				first.Do(func() { r.Body = &signalBody{ReadCloser: r.Body, ch: reading} })
				h.ServeHTTP(w, r)
			}))
			defer ts.Close()

			pr, pw := io.Pipe()
			replyA := make(chan ingestReply, 1)
			go func() {
				ir, err := tryPost(ts.URL, "dup-1", pr, false)
				if err != nil {
					t.Error(err)
				}
				replyA <- ir
			}()
			if _, err := pw.Write(body[:len(body)/2]); err != nil {
				t.Fatal(err)
			}
			<-reading
			if ir := post(t, ts.URL, "dup-1", bytes.NewReader(body), false); ir.status != http.StatusOK || ir.Deduped || ir.Accepted != len(batch) {
				t.Fatalf("request B: status %d deduped %v accepted %d: %s", ir.status, ir.Deduped, ir.Accepted, ir.Error)
			}
			pw.Write(body[len(body)/2:])
			pw.Close()
			if ir := <-replyA; ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(batch) {
				t.Fatalf("request A: status %d deduped %v accepted %d, want a dedup replay of %d: %s",
					ir.status, ir.Deduped, ir.Accepted, len(batch), ir.Error)
			}
			// Both requests are answered, so accepted is final; consumed
			// catches up to it.
			waitConsumed(t, srv, len(batch))
			if st := serverStats(t, ts.URL); st["records_deduped"] != float64(len(batch)) || st["accepted"] != float64(len(batch)) {
				t.Fatalf("accepted %v deduped %v, want %d each: the batch folded twice", st["accepted"], st["records_deduped"], len(batch))
			}
			if durable {
				if units := readUnits(t, eng, 0); len(units) != 1 || units[0].id != "dup-1" {
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
	eng := store.NewMem()
	srv := newServer(t, bounced.Config{Env: env, Store: eng})
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := append(encodeNDJSON(t, records[:2]), "{not json\n"...)
	body = append(body, encodeNDJSON(t, records[2:3])...)
	fsyncs := eng.Stats().Fsync.Count
	ir := postRecords(t, ts.URL, body)
	if ir.status != http.StatusBadRequest || ir.Line != 3 || ir.Accepted != 2 {
		t.Fatalf("status %d line %d accepted %d, want 400 at line 3 with 2 accepted", ir.status, ir.Line, ir.Accepted)
	}
	if got := eng.Stats().Fsync.Count; got <= fsyncs {
		t.Errorf("fsyncs still %d after a reply reporting accepted: 2", got)
	}
	start := time.Now()
	resp, err := http.Get(ts.URL + replication.PathWAL + "?from=0&wait=5s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tr, err := replication.NewTailReader(resp.Body)
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
	eng := store.NewMem()
	standby := newServer(t, bounced.Config{Env: env, Standby: true, Store: eng, QueueDepth: 8})
	defer standby.Abort()
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
	if units := readUnits(t, eng, 0); len(units) != 1 || len(units[0].payloads) != 100 {
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
	memNode := newServer(t, bounced.Config{Env: env, QueueDepth: 8192})
	defer memNode.Abort()
	mts := httptest.NewServer(memNode.Handler())
	defer mts.Close()
	eng := store.NewMem()
	durNode := newServer(t, bounced.Config{Env: env, Store: eng, QueueDepth: 8192})
	defer durNode.Abort()
	dts := httptest.NewServer(durNode.Handler())
	defer dts.Close()

	rng := rand.New(rand.NewSource(13))
	type acked struct {
		id    string
		count int
		body  []byte
		gz    bool
	}
	var last acked
	deduped := 0
	for off, step := 0, 0; off < len(records); step++ {
		n := min(1+rng.Intn(400), len(records)-off)
		id, gz, body := "", false, encodeNDJSON(t, records[off:off+n])
		switch kind := rng.Intn(4); {
		case kind == 3 && last.id != "":
			// A retry of the last acked ID, sent again as it was.
			id, n, body, gz = last.id, 0, last.body, last.gz
			deduped += last.count
		case kind == 2:
			gz = true
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(body)
			zw.Close()
			body = buf.Bytes()
			fallthrough
		case kind == 1:
			id = fmt.Sprintf("se-%d", step)
			last = acked{id, n, body, gz}
		}
		mr := post(t, mts.URL, id, bytes.NewReader(body), gz)
		dr := post(t, dts.URL, id, bytes.NewReader(body), gz)
		if mr != dr || mr.status != http.StatusOK || mr.Deduped != (n == 0) {
			t.Fatalf("step %d (id %q, %d records): memory node %+v, durable node %+v", step, id, n, mr, dr)
		}
		off += n
	}
	waitConsumed(t, memNode, len(records))
	waitConsumed(t, durNode, len(records))
	primaryLog := readUnits(t, eng, 0)

	standbyEng := store.NewMem()
	standby := newServer(t, bounced.Config{Env: env, Standby: true, Store: standbyEng, QueueDepth: 8192})
	defer standby.Abort()
	sts := httptest.NewServer(standby.Handler())
	defer sts.Close()
	applyUnits(t, standby, primaryLog)
	waitConsumed(t, standby, len(records))

	want := batchReport(t, records, env, bounce.AllSections)
	for name, url := range map[string]string{"memory": mts.URL, "durable": dts.URL, "standby": sts.URL} {
		if got := reportBytes(t, url); !bytes.Equal(got, want) {
			t.Errorf("%s node report differs from batch (%d vs %d bytes)", name, len(got), len(want))
		}
		st := serverStats(t, url)
		wantDedup := float64(deduped)
		if name == "standby" {
			wantDedup = 0 // retries go to the primary
		}
		if st["accepted"] != float64(len(records)) || st["consumed"] != float64(len(records)) || st["records_deduped"] != wantDedup {
			t.Errorf("%s node: accepted %v consumed %v deduped %v, want %d/%d/%v",
				name, st["accepted"], st["consumed"], st["records_deduped"], len(records), len(records), wantDedup)
		}
	}
	standbyLog := readUnits(t, standbyEng, 0)
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
	standby.Promote(2, "test")
	if ir := post(t, sts.URL, last.id, bytes.NewReader(last.body), last.gz); ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != last.count {
		t.Fatalf("retry of %q on the promoted standby: %+v, want deduped with %d", last.id, ir, last.count)
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
	helperEng := store.NewMem()
	helper := newServer(t, bounced.Config{Env: env, Store: helperEng, QueueDepth: 8192})
	defer helper.Abort()
	if _, err := helper.IngestBatch(records[:at]); err != nil {
		t.Fatal(err)
	}
	waitConsumed(t, helper, at)
	if err := helper.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	cp, err := helperEng.Recover()
	if err != nil || cp == nil || cp.Records != uint64(at) {
		t.Fatalf("helper checkpoint: %v, %+v, want one at %d records", err, cp, at)
	}
	lateEng := store.NewMem()
	late := newServer(t, bounced.Config{Env: env, Standby: true, Store: lateEng, QueueDepth: 8192})
	defer late.Abort()
	lts := httptest.NewServer(late.Handler())
	defer lts.Close()
	if err := late.ResetTo(cp); err != nil {
		t.Fatal(err)
	}
	rest := readUnits(t, eng, uint64(at))
	if rest[0].start != u.start {
		t.Fatalf("tail from %d starts with the unit at %d, want the straddling one at %d", at, rest[0].start, u.start)
	}
	applyUnits(t, late, rest)
	waitConsumed(t, late, len(records))
	if got := reportBytes(t, lts.URL); !bytes.Equal(got, want) {
		t.Errorf("late standby report differs from batch (%d vs %d bytes)", len(got), len(want))
	}
	var lateRecs, primaryRecs [][]byte
	for _, lu := range readUnits(t, lateEng, uint64(at)) {
		lateRecs = append(lateRecs, lu.payloads...)
	}
	for _, pu := range primaryLog {
		primaryRecs = append(primaryRecs, pu.payloads...)
	}
	if len(lateRecs) != len(records)-at || !bytes.Equal(bytes.Join(lateRecs, nil), bytes.Join(primaryRecs[at:], nil)) {
		t.Fatalf("late standby log holds %d records past %d, want the primary's %d", len(lateRecs), at, len(records)-at)
	}
	late.Promote(2, "test")
	if ir := post(t, lts.URL, u.id, bytes.NewReader(nil), false); ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(u.payloads) {
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
	var owned []dataset.Record
	var foreign *dataset.Record
	for i := range records {
		if analysis.OwnerOf(&records[i], 2) == 0 {
			owned = append(owned, records[i])
		} else if foreign == nil {
			foreign = &records[i]
		}
	}
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
			srv := newServer(t, bounced.Config{Env: env, ShardCount: 2, ShardIndex: 0})
			defer srv.Abort()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ir := postRecords(t, ts.URL, body)
			if ir.status != http.StatusBadRequest || ir.Line != k || ir.Accepted != k-1 {
				t.Fatalf("status %d line %d accepted %d, want 400 at line %d with %d accepted: %s",
					ir.status, ir.Line, ir.Accepted, k, k-1, ir.Error)
			}
			waitConsumed(t, srv, k-1)
			if k == 1 {
				return
			}
			sections := []bounce.Section{bounce.SecOverview}
			status, got := getBody(t, ts.URL+"/v1/report?section=overview")
			if want := batchReport(t, lines[:k-1], env, sections); status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("report over the accepted prefix differs from batch over lines 1..%d", k-1)
			}
		})
		t.Run(fmt.Sprintf("batch/line=%d", k), func(t *testing.T) {
			srv := newServer(t, bounced.Config{Env: env, ShardCount: 2, ShardIndex: 0, QueueDepth: 8192})
			defer srv.Abort()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			_, ir := postBatchID(t, ts.URL, "lines-1", len(lines), body)
			if ir.status != http.StatusBadRequest || ir.Line != k || ir.Accepted != 0 || srv.Accepted() != 0 {
				t.Fatalf("status %d line %d accepted %d (server %d), want 400 at line %d with nothing admitted: %s",
					ir.status, ir.Line, ir.Accepted, srv.Accepted(), k, ir.Error)
			}
			// Re-partitioned, the same ID goes through.
			kept := append(append([]dataset.Record{}, lines[:k-1]...), lines[k:]...)
			_, ir = postBatchID(t, ts.URL, "lines-1", len(kept), encodeNDJSON(t, kept))
			if ir.status != http.StatusOK || ir.Accepted != len(kept) {
				t.Fatalf("resend without the foreign record: status %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
			}
			waitConsumed(t, srv, len(kept))
		})
	}
}
