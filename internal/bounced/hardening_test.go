package bounced_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/faultinject"
)

// TestBatchIdempotentDedup: replaying an admitted batch ID must be
// acknowledged with the original accepted count without re-ingesting a
// single record.
func TestBatchIdempotentDedup(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env}})

	body := encodeNDJSON(t, records[:50])
	ir := send(t, n.url, batch{id: "batch-1", declared: 50, raw: body})
	if ir.status != http.StatusOK || ir.Accepted != 50 {
		t.Fatalf("first send: status %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}
	// Replay: same ID, same body — the retry a client issues when the
	// first response was lost.
	ir = send(t, n.url, batch{id: "batch-1", declared: 50, raw: body})
	if ir.status != http.StatusOK || ir.Accepted != 50 {
		t.Fatalf("replay: status %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}
	if n.srv.Accepted() != 50 {
		t.Fatalf("server accepted %d records, want 50 (replay must not re-ingest)", n.srv.Accepted())
	}
	var st map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	if st["records_deduped"].(float64) != 50 || st["dedup_batches"].(float64) != 1 {
		t.Fatalf("dedup accounting: deduped=%v batches=%v", st["records_deduped"], st["dedup_batches"])
	}

	// A fresh ID with the same payload ingests normally.
	ir = send(t, n.url, batch{id: "batch-2", declared: 50, raw: body})
	if ir.status != http.StatusOK || n.srv.Accepted() != 100 {
		t.Fatalf("new ID: status %d, server accepted %d want 100", ir.status, n.srv.Accepted())
	}
}

// TestBatchShedWith429: once the queue cannot hold a batch, admission
// must shed it immediately with 429 + Retry-After instead of blocking
// the request, and a later retry under the same ID must succeed with
// exact shed accounting.
func TestBatchShedWith429(t *testing.T) {
	records, env := fixture(t)
	// A stalled consumer (2ms per record) keeps the tiny queue full.
	n := single(t, row{cfg: bounced.Config{
		Env: env, QueueDepth: 8,
		Faults: &faultinject.Spec{Stall: 2 * time.Millisecond},
	}})

	if ir := send(t, n.url, batch{id: "fill", declared: 8, recs: records[:8]}); ir.status != http.StatusOK {
		t.Fatalf("fill batch: status %d: %s", ir.status, ir.Error)
	}
	// The queue holds 8 unconsumed records: the next batch cannot fit.
	ir := send(t, n.url, batch{id: "shed-me", declared: 8, recs: records[8:16]})
	if ir.status != http.StatusTooManyRequests {
		t.Fatalf("overload batch: status %d, want 429: %s", ir.status, ir.Error)
	}
	ra, err := strconv.Atoi(ir.header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ir.header.Get("Retry-After"))
	}
	ms, err := strconv.ParseFloat(ir.header.Get("X-Retry-After-Ms"), 64)
	if err != nil || ms <= 0 {
		t.Fatalf("X-Retry-After-Ms = %q, want positive milliseconds", ir.header.Get("X-Retry-After-Ms"))
	}
	if ir.RetryAfterMs != ms {
		t.Fatalf("body retry_after_ms %v != header %v", ir.RetryAfterMs, ms)
	}

	// Retry under the same ID until the consumer drains the queue.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ir = send(t, n.url, batch{id: "shed-me", declared: 8, recs: records[8:16]})
		if ir.status == http.StatusOK {
			break
		}
		if ir.status != http.StatusTooManyRequests {
			t.Fatalf("retry: status %d: %s", ir.status, ir.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("batch still shed after 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n.srv.Accepted() != 16 {
		t.Fatalf("accepted %d records, want 16", n.srv.Accepted())
	}
	var st map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	shed := uint64(st["records_shed"].(float64))
	if shed < 8 || shed%8 != 0 {
		t.Fatalf("records_shed = %d, want a positive multiple of 8", shed)
	}
	// The balance every chaos run must satisfy: presented = accepted +
	// shed + rejected + deduped, with each request classified once.
	presented := n.srv.Accepted() + shed +
		uint64(st["records_rejected"].(float64)) + uint64(st["records_deduped"].(float64))
	wantPresented := uint64(16 + shed) // 2 admitted batches + shed attempts
	if presented != wantPresented {
		t.Fatalf("accounting balance: presented %d, want %d", presented, wantPresented)
	}
}

// TestBatchOversizedRejected: a batch larger than the queue could ever
// admit must 413 instead of shedding forever.
func TestBatchOversizedRejected(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env, QueueDepth: 4}})

	ir := send(t, n.url, batch{id: "too-big", declared: 16, recs: records[:16]})
	if ir.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413: %s", ir.status, ir.Error)
	}
	if n.srv.Accepted() != 0 {
		t.Fatalf("oversized batch partially ingested: %d", n.srv.Accepted())
	}
	var st map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	if st["records_rejected"].(float64) != 16 {
		t.Fatalf("records_rejected = %v, want 16", st["records_rejected"])
	}
}

// TestBatchDeclaredCountIsBounded: nothing an X-Batch-Id request can
// make the node hold outgrows the queue bound. A declared count past it
// is refused on the header alone — it used to size an allocation, and
// four billion ended the process — and an undeclared body is refused as
// soon as what was decoded passes it, not after the whole body is held.
func TestBatchDeclaredCountIsBounded(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env, QueueDepth: 8}})

	const lie = 4_000_000_000
	if ir := send(t, n.url, batch{id: "lie", declared: lie}); ir.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared %d records: status %d, want 413: %s", lie, ir.status, ir.Error)
	}
	if ir := send(t, n.url, batch{id: "big", recs: records[:64]}); ir.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("64 undeclared records into a queue of 8: status %d, want 413: %s", ir.status, ir.Error)
	}
	get(t, n.url+"/healthz", http.StatusOK, nil) // still up after the refusals
	if ir := send(t, n.url, batch{id: "fits", declared: 8, recs: records[:8]}); ir.status != http.StatusOK || ir.Accepted != 8 {
		t.Fatalf("a batch that fits: status %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}
	var st map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	balance := st["accepted"].(float64) + st["records_shed"].(float64) +
		st["records_rejected"].(float64) + st["records_deduped"].(float64)
	if want := float64(lie + 64 + 8); balance != want {
		t.Fatalf("accepted+shed+rejected+deduped = %.0f, want %.0f presented", balance, want)
	}

	// A body of several decode blocks is refused after the first: what
	// was counted rejected is what had been decoded, not the whole body.
	// (Served without a socket: a server that stops reading mid-body may
	// reset the connection under the client's write.)
	one := encodeNDJSON(t, records)
	copies := 1<<21/len(one) + 1
	lines := copies * len(records)
	req := httptest.NewRequest("POST", "/v1/records", bytes.NewReader(bytes.Repeat(one, copies)))
	req.Header.Set("X-Batch-Id", "huge")
	rec := httptest.NewRecorder()
	n.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d undeclared records: status %d, want 413: %s", lines, rec.Code, rec.Body)
	}
	var after map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &after)
	held := after["records_rejected"].(float64) - st["records_rejected"].(float64)
	if held <= 8 || held >= float64(lines) {
		t.Fatalf("refused after decoding %.0f of %d records, want more than the queue's 8 and not the whole body", held, lines)
	}
}

// TestBatchAtomicOnDecodeError: with a batch ID, a malformed line
// must reject the whole batch — no partial prefix — and the ID stays
// unregistered so a corrected resend under the same ID succeeds.
func TestBatchAtomicOnDecodeError(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env}})

	good := encodeNDJSON(t, records[:20])
	lines := bytes.SplitAfter(good, []byte("\n"))
	bad := bytes.Join([][]byte{bytes.Join(lines[:10], nil), []byte("{broken\n"), bytes.Join(lines[10:], nil)}, nil)

	ir := send(t, n.url, batch{id: "atomic", raw: bad})
	if ir.status != http.StatusBadRequest || ir.Accepted != 0 {
		t.Fatalf("malformed batch: status %d accepted %d, want 400/0", ir.status, ir.Accepted)
	}
	if ir.Line != 11 {
		t.Fatalf("malformed batch line %d, want 11", ir.Line)
	}
	if n.srv.Accepted() != 0 {
		t.Fatalf("atomic batch leaked %d records before the bad line", n.srv.Accepted())
	}
	// Declared-count mismatches reject the batch too.
	if ir := send(t, n.url, batch{id: "miscount", declared: 19, raw: good}); ir.status != http.StatusBadRequest {
		t.Fatalf("declared mismatch: status %d, want 400", ir.status)
	}
	// The corrected resend reuses the same ID.
	if ir := send(t, n.url, batch{id: "atomic", declared: 20, raw: good}); ir.status != http.StatusOK || ir.Accepted != 20 {
		t.Fatalf("corrected resend: status %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}
	if n.srv.Accepted() != 20 {
		t.Fatalf("accepted %d, want 20", n.srv.Accepted())
	}
}

// TestServerFaultInjectionSurfacesDecodeError: a torn-stream fault
// injected server-side must surface as an ordinary line-numbered 400,
// be counted in faults_injected, and leave the stream retryable. The
// torn cut always lands in the first 16 KiB, so a larger body trips it
// deterministically.
func TestServerFaultInjectionSurfacesDecodeError(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{
		Env:    env,
		Faults: &faultinject.Spec{Seed: 3, Torn: 1},
	}})

	body := encodeNDJSON(t, records[:50])
	for len(body) <= 17<<10 {
		body = append(body, body...)
	}
	ir := send(t, n.url, batch{raw: body})
	if ir.status != http.StatusBadRequest || ir.Line < 1 {
		t.Fatalf("torn stream: status %d line %d, want a line-numbered 400", ir.status, ir.Line)
	}
	var st map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	if st["faults_injected"].(float64) < 1 {
		t.Fatalf("faults_injected = %v, want >= 1", st["faults_injected"])
	}
	if metrics := get(t, n.url+"/metrics", http.StatusOK, nil); !strings.Contains(string(metrics), `bounced_faults_injected_total{kind="torn"}`) {
		t.Fatal("metrics missing injected-fault counter")
	}
}

// TestFaultsInjectedIsSumOfKinds: after a faulted ingest, /v1/stats'
// faults_injected is exactly the sum of its faults_by_kind, and of the
// /metrics samples — all three come from one read of the counters.
func TestFaultsInjectedIsSumOfKinds(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{
		Env:    env,
		Faults: &faultinject.Spec{Seed: 5, Torn: 0.5, Corrupt: 0.5},
	}})

	// Both cuts land in the first 32 KiB, so a larger body trips every
	// fault its plan draws.
	body := encodeNDJSON(t, records[:50])
	for len(body) <= 33<<10 {
		body = append(body, body...)
	}
	for range 8 {
		send(t, n.url, batch{raw: body})
	}
	var st map[string]any
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	byKind, _ := st["faults_by_kind"].(map[string]any)
	var sum float64
	for _, k := range byKind {
		sum += k.(float64)
	}
	if len(byKind) < 2 || st["faults_injected"] != sum {
		t.Fatalf("faults_injected = %v, faults_by_kind = %v: want two kinds summing to the total", st["faults_injected"], byKind)
	}
	metrics := get(t, n.url+"/metrics", http.StatusOK, nil)
	var promSum float64
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "bounced_faults_injected_total{") {
			var k float64
			fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &k)
			promSum += k
		}
	}
	if promSum != sum {
		t.Fatalf("/metrics faults sum to %v, /v1/stats to %v", promSum, sum)
	}
}

// TestReadDeadlineCutsSlowLoris: a client that trickles its body
// slower than the read deadline must be cut off with 408 instead of
// holding the ingest goroutine hostage, keeping the complete prefix.
func TestReadDeadlineCutsSlowLoris(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env, ReadTimeout: 250 * time.Millisecond}})

	pr, pw := io.Pipe()
	done := make(chan ingestReply, 1)
	go func() {
		ir, err := try(n.url, batch{stream: pr})
		if err != nil {
			ir.status, ir.Error = -1, err.Error()
		}
		done <- ir
	}()

	// One complete record, then silence past the deadline.
	pw.Write(encodeNDJSON(t, records[:1]))
	start := time.Now()
	select {
	case ir := <-done:
		if ir.status != http.StatusRequestTimeout {
			t.Fatalf("slow-loris reply: status %d (%s), want 408", ir.status, ir.Error)
		}
		if ir.Accepted != 1 {
			t.Fatalf("slow-loris accepted %d, want the 1 complete record", ir.Accepted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow-loris request never cut off")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline took %v to fire", waited)
	}
	pw.Close()
}

// TestDrainZeroLossUnderSlowLoris extends the zero-loss drain
// guarantee to fault load: shutdown arriving while an injected
// slow-loris ingest is mid-flight must still flush a final report
// covering every accepted record — the streamed prefix of the loris
// request included.
func TestDrainZeroLossUnderSlowLoris(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env, QueueDepth: 64, ReadTimeout: 300 * time.Millisecond}})

	// A healthy batch lands first.
	if ir := send(t, n.url, batch{recs: records[:100]}); ir.status != http.StatusOK {
		t.Fatalf("healthy batch: status %d", ir.status)
	}

	// The loris client delivers 3 complete records, then stalls past
	// the read deadline while shutdown begins.
	// A dedicated transport keeps the loris request off the keep-alive
	// connection the healthy batch left idle: Shutdown may close an
	// idle connection in the instant before the server notices the new
	// request on it, which would reset the client instead of serving it.
	lorisClient := &http.Client{Transport: &http.Transport{}}
	defer lorisClient.CloseIdleConnections()
	pr, pw := io.Pipe()
	lorisDone := make(chan ingestReply, 1)
	go func() {
		ir, err := try(n.url, batch{stream: pr, client: lorisClient})
		if err != nil {
			ir.status, ir.Error = -1, err.Error()
		}
		lorisDone <- ir
	}()
	pw.Write(encodeNDJSON(t, records[100:103]))
	// Let the handler pick the request up before shutdown begins; even
	// if this overshoots the read deadline the assertions below hold.
	time.Sleep(100 * time.Millisecond)

	// SIGTERM path, exactly as cmd/bounced runs it: stop HTTP (waits
	// for the loris request to be cut at its deadline), then drain.
	shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := n.ts.Config.Shutdown(shCtx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	ir := <-lorisDone
	if ir.status != http.StatusRequestTimeout || ir.Accepted != 3 {
		t.Fatalf("loris request: status %d accepted %d (%s), want 408 with 3 records", ir.status, ir.Accepted, ir.Error)
	}
	pw.Close()

	want := uint64(103)
	if got := n.drain(); got != want || n.srv.Accepted() != want {
		t.Fatalf("drained %d records (accepted %d), want %d", got, n.srv.Accepted(), want)
	}
	var buf bytes.Buffer
	if err := n.srv.WriteFinalReport(&buf, []bounce.Section{bounce.SecOverview}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("%d", want)) {
		t.Errorf("final report does not cover all %d records:\n%s", want, buf.String())
	}
}

// TestBatchDedupWindowEvictsFIFO pins the idempotency window's stated
// limit: it remembers the last Config.DedupWindow batch IDs and no
// more, so a retry older than that is folded a second time. Eviction is
// first in, first out, and the order survives a checkpoint and restart
// of a durable node (the dedup section's parallel arrays).
func TestBatchDedupWindowEvictsFIFO(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{store: fsEngine, cfg: bounced.Config{Env: env, DedupWindow: 2}})
	retry := func(id string, wantDeduped bool) {
		t.Helper()
		from := int(id[0]-'a') * 10
		ir := send(t, n.url, batch{id: id, recs: records[from : from+10]})
		if ir.status != http.StatusOK || ir.Accepted != 10 || ir.Deduped != wantDeduped {
			t.Fatalf("batch %s: status %d accepted %d deduped %v, want deduped %v: %s",
				id, ir.status, ir.Accepted, ir.Deduped, wantDeduped, ir.Error)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		retry(id, false)
	}
	retry("b", true)
	retry("c", true)
	if got := n.drain(); got != 30 {
		t.Fatalf("drained %d records, want 30", got)
	}

	n.restart()
	if ri := n.srv.Recovery(); ri.CheckpointRecords != 30 || ri.Replayed != 0 {
		t.Fatalf("recovery %+v, want the window restored from a checkpoint at 30", ri)
	}
	// a fell out of the window when c registered: its retry is new work,
	// and registering it again evicts b — the oldest entry only if the
	// restored window kept b ahead of c.
	retry("a", false)
	retry("c", true)
	retry("b", false)
	if got := n.srv.Accepted(); got != 20 {
		t.Fatalf("restarted node accepted %d records, want the two evicted batches (20)", got)
	}
}
