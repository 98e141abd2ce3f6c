package bounced_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/store"
)

// replPair boots a durable primary and a standby wired together by a
// real replication sync loop over real HTTP. The returned stop func
// tears everything down and waits for the sync goroutine to exit.
type replPair struct {
	primary, standby *bounced.Server
	pts, sts         *httptest.Server
	sync             *replication.Standby
	stop             func()
}

func newReplPair(t *testing.T, primaryCfg, standbyCfg bounced.Config, syncCfg replication.StandbyConfig) *replPair {
	t.Helper()
	if primaryCfg.Store == nil {
		primaryCfg.Store = store.NewMem()
	}
	if primaryCfg.QueueDepth == 0 {
		primaryCfg.QueueDepth = 8192
	}
	standbyCfg.Standby = true
	if standbyCfg.Store == nil {
		standbyCfg.Store = store.NewMem()
	}
	if standbyCfg.QueueDepth == 0 {
		standbyCfg.QueueDepth = 8192
	}
	p := &replPair{
		primary: newServer(t, primaryCfg),
		standby: newServer(t, standbyCfg),
	}
	p.pts = httptest.NewServer(p.primary.Handler())
	p.sts = httptest.NewServer(p.standby.Handler())
	syncCfg.PrimaryURL = p.pts.URL
	if syncCfg.ID == "" {
		syncCfg.ID = "standby-1"
	}
	if syncCfg.PollWait == 0 {
		syncCfg.PollWait = 250 * time.Millisecond
	}
	if syncCfg.RetryInterval == 0 {
		syncCfg.RetryInterval = 20 * time.Millisecond
	}
	syncCfg.Logf = func(string, ...any) {}
	sl, err := replication.NewStandby(syncCfg, p.standby)
	if err != nil {
		t.Fatal(err)
	}
	p.sync = sl
	p.standby.SetSync(sl)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		sl.Run(ctx)
	}()
	var once bool
	p.stop = func() {
		if once {
			return
		}
		once = true
		cancel()
		<-done
		p.pts.Close()
		p.sts.Close()
		p.primary.Abort()
		p.standby.Abort()
	}
	return p
}

func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func fullReport(t *testing.T, url string) []byte {
	t.Helper()
	status, b := getBody(t, url+"/v1/report?section=all")
	if status != http.StatusOK {
		t.Fatalf("report status %d: %s", status, b)
	}
	return b
}

// TestFailoverReportByteIdentical is the subsystem's acceptance test:
// a primary semi-sync-replicating to a standby dies mid-stream, the
// standby promotes, the remaining traffic lands on the survivor, and
// its final report is byte-identical to a single uninterrupted node
// over the same corpus — with a pre-failover batch ID still deduping
// on the promoted node (exactly-once across the failover).
func TestFailoverReportByteIdentical(t *testing.T) {
	records, env := fixture(t)

	// Reference: one memory node over the whole corpus, no failover.
	ref := newServer(t, bounced.Config{Env: env})
	rts := httptest.NewServer(ref.Handler())
	if ir := postRecords(t, rts.URL, encodeNDJSON(t, records)); ir.status != http.StatusOK {
		t.Fatalf("reference ingest: status %d: %s", ir.status, ir.Error)
	}
	want := fullReport(t, rts.URL)
	rts.Close()
	ref.Abort()

	p := newReplPair(t,
		bounced.Config{Env: env, ReplAck: 1, ReplAckTimeout: 10 * time.Second},
		bounced.Config{Env: env},
		replication.StandbyConfig{})
	defer p.stop()

	const per = 64
	var batches [][]dataset.Record
	for i := 0; i < len(records); i += per {
		end := i + per
		if end > len(records) {
			end = len(records)
		}
		batches = append(batches, records[i:end])
	}
	cut := len(batches) / 2
	for i, b := range batches[:cut] {
		ir := postBatch(t, p.pts.URL, fmt.Sprintf("fo-%d", i), b)
		if ir.status != http.StatusOK || ir.Accepted != len(b) {
			t.Fatalf("batch %d: status %d accepted %d of %d: %s", i, ir.status, ir.Accepted, len(b), ir.Error)
		}
	}
	// Semi-sync acks mean every acked record is already applied on the
	// standby — the kill below cannot lose any of them.
	if got, want := p.standby.AppliedIndex(), p.primary.AppliedIndex(); got != want {
		t.Fatalf("standby applied %d, primary log end %d (semi-sync ack leaked ahead)", got, want)
	}

	p.pts.Close()
	p.primary.Abort()
	resp, err := http.Post(p.sts.URL+"/v1/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if p.standby.IsStandby() {
		t.Fatal("node still reports standby after promote")
	}
	if got := p.standby.Epoch(); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}

	// A client retrying a pre-failover batch against the survivor must
	// dedup with the original count — the replicated idempotency window.
	ir := postBatch(t, p.sts.URL, "fo-0", batches[0])
	if ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(batches[0]) {
		t.Fatalf("pre-failover batch replay: status %d deduped %v accepted %d, want 200/true/%d",
			ir.status, ir.Deduped, ir.Accepted, len(batches[0]))
	}

	for i, b := range batches[cut:] {
		ir := postBatch(t, p.sts.URL, fmt.Sprintf("fo-%d", cut+i), b)
		if ir.status != http.StatusOK || ir.Accepted != len(b) {
			t.Fatalf("post-failover batch %d: status %d accepted %d: %s", cut+i, ir.status, ir.Accepted, ir.Error)
		}
	}
	got := fullReport(t, p.sts.URL)
	if !bytes.Equal(got, want) {
		t.Fatalf("promoted standby report diverges from uninterrupted single node (%d vs %d bytes)", len(got), len(want))
	}

	status, body := getBody(t, p.sts.URL+replication.PathStatus)
	if status != http.StatusOK || !strings.Contains(string(body), `"role": "primary"`) {
		t.Fatalf("promoted node status: %d %s", status, body)
	}
}

// TestSemiSyncNeedsStore: semi-sync acks without a WAL would gate
// nothing — every batch acked, none replicated — so New must refuse the
// configuration rather than boot it (bounced -repl-ack 1 without
// -data-dir).
func TestSemiSyncNeedsStore(t *testing.T) {
	srv, err := bounced.New(bounced.Config{ReplAck: 1})
	if err == nil {
		srv.Abort()
		t.Fatal("New accepted ReplAck > 0 without a Store: acks would pass ungated")
	}
	srv, err = bounced.New(bounced.Config{ReplAck: 1, Store: store.NewMem()})
	if err != nil {
		t.Fatalf("New refused ReplAck with a Store: %v", err)
	}
	srv.Abort()
}

// TestSemiSyncAckGate pins the zero-acked-loss mechanism: with
// ReplAck=1 and no standby attached, an ingest ack times out into a
// retryable 503 — including the dedup-hit retry — and succeeds only
// once a standby has really applied the batch.
func TestSemiSyncAckGate(t *testing.T) {
	records, env := fixture(t)
	batch := records[:32]

	primary := newServer(t, bounced.Config{
		Env: env, Store: store.NewMem(), ReplAck: 1, ReplAckTimeout: 100 * time.Millisecond,
	})
	pts := httptest.NewServer(primary.Handler())

	ir := postBatch(t, pts.URL, "gate-1", batch)
	if ir.status != http.StatusServiceUnavailable {
		t.Fatalf("ack without standby: status %d, want 503", ir.status)
	}
	// The batch is committed locally; the retry takes the dedup path,
	// which must also hold the ack until a standby confirms.
	ir = postBatch(t, pts.URL, "gate-1", batch)
	if ir.status != http.StatusServiceUnavailable {
		t.Fatalf("dedup-path ack without standby: status %d, want 503", ir.status)
	}

	standby := newServer(t, bounced.Config{Env: env, Standby: true, Store: store.NewMem(), QueueDepth: 8192})
	defer standby.Abort()
	sl, err := replication.NewStandby(replication.StandbyConfig{
		PrimaryURL: pts.URL, ID: "s1", PollWait: 100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond, Logf: func(string, ...any) {},
	}, standby)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sl.Run(ctx) }()
	defer func() { cancel(); <-done; pts.Close(); primary.Abort() }()

	waitFor(t, 5*time.Second, "standby catch-up", func() bool {
		return standby.AppliedIndex() == primary.AppliedIndex()
	})
	ir = postBatch(t, pts.URL, "gate-1", batch)
	if ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(batch) {
		t.Fatalf("retry with standby attached: status %d deduped %v accepted %d", ir.status, ir.Deduped, ir.Accepted)
	}

	status, stats := getBody(t, pts.URL+"/v1/stats")
	if status != http.StatusOK || !strings.Contains(string(stats), `"ack_timeouts": `) {
		t.Fatalf("stats missing replication block: %d", status)
	}
	if !strings.Contains(string(stats), `"role": "primary"`) {
		t.Fatal("stats replication block missing role")
	}
}

// TestStandbyRefusesWrites: a standby answers direct ingest with a
// retryable 503 pointing at the primary.
func TestStandbyRefusesWrites(t *testing.T) {
	records, env := fixture(t)
	standby := newServer(t, bounced.Config{Env: env, Standby: true, Store: store.NewMem(), QueueDepth: 8192})
	defer standby.Abort()
	sts := httptest.NewServer(standby.Handler())
	defer sts.Close()

	ir := postRecords(t, sts.URL, encodeNDJSON(t, records[:4]))
	if ir.status != http.StatusServiceUnavailable || !strings.Contains(ir.Error, "standby") {
		t.Fatalf("standby ingest: status %d error %q, want 503 naming the standby role", ir.status, ir.Error)
	}
	ir = postBatch(t, sts.URL, "sb-1", records[:4])
	if ir.status != http.StatusServiceUnavailable {
		t.Fatalf("standby batch ingest: status %d, want 503", ir.status)
	}
}

// TestApplyBatchDecodeErrorNamesRecord: when a replicated unit straddles
// the standby's log end, only its unapplied suffix is decoded, and a
// payload in it that fails to decode must be reported under its index
// in the log, not its offset in the suffix counted from the unit start.
func TestApplyBatchDecodeErrorNamesRecord(t *testing.T) {
	records, env := fixture(t)
	standby := newServer(t, bounced.Config{Env: env, Standby: true, Store: store.NewMem(), QueueDepth: 8192})
	defer standby.Abort()
	payloads := make([][]byte, 8)
	for i := range payloads {
		p, err := records[i].MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = p
	}
	if err := standby.ApplyBatch(&replication.Unit{Start: 0, ID: "u0", Payloads: payloads[:4]}); err != nil {
		t.Fatal(err)
	}
	// Records [2,8) against a log ending at 4: the suffix [4,8) is new,
	// and record 6 in it is damaged.
	straddling := append([][]byte{}, payloads[2:]...)
	straddling[6-2] = []byte(`{"from":`)
	err := standby.ApplyBatch(&replication.Unit{Start: 2, ID: "u1", Payloads: straddling})
	if err == nil || !strings.Contains(err.Error(), "replicated record 6 ") {
		t.Fatalf("ApplyBatch error = %v, want it to name record 6", err)
	}
	if got := standby.AppliedIndex(); got != 4 {
		t.Fatalf("applied index = %d after a rejected unit, want 4", got)
	}
}

// TestStandbyResyncFromCheckpoint covers the 410 path: a standby
// starting from offset 0 against a primary whose WAL tail is pruned
// must bootstrap from the shipped checkpoint, then stream the rest,
// and still serve the same report bytes.
func TestStandbyResyncFromCheckpoint(t *testing.T) {
	records, env := fixture(t)
	half := len(records) / 2

	primary := newServer(t, bounced.Config{Env: env, Store: store.NewMem(), QueueDepth: 8192})
	pts := httptest.NewServer(primary.Handler())
	if ir := postBatch(t, pts.URL, "rs-0", records[:half]); ir.status != http.StatusOK {
		t.Fatalf("primary ingest: %d %s", ir.status, ir.Error)
	}
	// Checkpoint prunes the Mem engine's whole tail: offset 0 is gone —
	// once the consumer has folded the batch, since a checkpoint covers
	// only consumed records and the batch is one unprunable unit.
	waitFor(t, 5*time.Second, "primary consumption", func() bool {
		return primary.Consumed() == uint64(half)
	})
	resp, err := http.Post(pts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	standby := newServer(t, bounced.Config{Env: env, Standby: true, Store: store.NewMem(), QueueDepth: 8192})
	sl, err := replication.NewStandby(replication.StandbyConfig{
		PrimaryURL: pts.URL, ID: "s1", PollWait: 100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond, Logf: func(string, ...any) {},
	}, standby)
	if err != nil {
		t.Fatal(err)
	}
	standby.SetSync(sl)
	sts := httptest.NewServer(standby.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sl.Run(ctx) }()
	defer func() {
		cancel()
		<-done
		pts.Close()
		sts.Close()
		primary.Abort()
		standby.Abort()
	}()

	waitFor(t, 5*time.Second, "resync catch-up", func() bool {
		return standby.AppliedIndex() == primary.AppliedIndex()
	})
	if got := sl.Status().Resyncs; got != 1 {
		t.Fatalf("resyncs = %d, want 1", got)
	}
	if ir := postBatch(t, pts.URL, "rs-1", records[half:]); ir.status != http.StatusOK {
		t.Fatalf("primary ingest after resync: %d %s", ir.status, ir.Error)
	}
	waitFor(t, 5*time.Second, "incremental catch-up", func() bool {
		return standby.AppliedIndex() == primary.AppliedIndex()
	})
	want := fullReport(t, pts.URL)
	got := fullReport(t, sts.URL)
	if !bytes.Equal(got, want) {
		t.Fatalf("resynced standby report diverges from primary (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAutoFailoverPromotes: a standby with a heartbeat timeout
// promotes itself when the primary stops answering, keeping every
// replicated record.
func TestAutoFailoverPromotes(t *testing.T) {
	records, env := fixture(t)
	p := newReplPair(t,
		bounced.Config{Env: env, ReplAck: 1, ReplAckTimeout: 10 * time.Second},
		bounced.Config{Env: env},
		replication.StandbyConfig{
			PollWait:        100 * time.Millisecond,
			FailoverTimeout: 400 * time.Millisecond,
		})
	defer p.stop()

	n := len(records) / 4
	if ir := postBatch(t, p.pts.URL, "af-0", records[:n]); ir.status != http.StatusOK {
		t.Fatalf("ingest: %d %s", ir.status, ir.Error)
	}
	applied := p.standby.AppliedIndex()
	if applied != uint64(n) {
		t.Fatalf("standby applied %d, want %d", applied, n)
	}

	p.pts.CloseClientConnections()
	p.pts.Close()
	p.primary.Abort()
	waitFor(t, 5*time.Second, "auto-promotion", func() bool { return !p.standby.IsStandby() })
	if got := p.standby.Epoch(); got != 2 {
		t.Fatalf("epoch after auto-failover = %d, want 2", got)
	}
	if got := p.standby.AppliedIndex(); got != applied {
		t.Fatalf("records across failover: applied %d, want %d (zero loss)", got, applied)
	}
}

// TestRouterFailoverEndToEnd drives the full cluster shape the chaos
// drill scripts: client → router → primary, primary dies, standby
// promotes, the router re-elects it, and the client's retried batch
// lands exactly once.
func TestRouterFailoverEndToEnd(t *testing.T) {
	records, env := fixture(t)
	p := newReplPair(t,
		bounced.Config{Env: env, ReplAck: 1, ReplAckTimeout: 10 * time.Second},
		bounced.Config{Env: env},
		replication.StandbyConfig{})
	defer p.stop()

	router, err := replication.NewRouter(replication.RouterConfig{
		Peers:         []string{p.pts.URL, p.sts.URL},
		ProbeInterval: 20 * time.Millisecond,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	go router.Run(rctx)
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	waitFor(t, 5*time.Second, "router election", func() bool { return router.Primary() == p.pts.URL })

	half := len(records) / 2
	if ir := postBatch(t, rts.URL, "rt-0", records[:half]); ir.status != http.StatusOK || ir.Accepted != half {
		t.Fatalf("ingest via router: %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}

	p.pts.Close()
	p.primary.Abort()
	resp, err := http.Post(p.sts.URL+"/v1/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, 5*time.Second, "router re-election", func() bool { return router.Primary() == p.sts.URL })

	// The batch retry a client owes after a failover-window error must
	// dedup; fresh traffic flows to the survivor.
	ir := postBatch(t, rts.URL, "rt-0", records[:half])
	if ir.status != http.StatusOK || !ir.Deduped {
		t.Fatalf("replay via router: status %d deduped %v", ir.status, ir.Deduped)
	}
	ir = postBatch(t, rts.URL, "rt-1", records[half:])
	if ir.status != http.StatusOK || ir.Accepted != len(records)-half {
		t.Fatalf("fresh batch via router: %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}
	if got := p.standby.Consumed(); got != uint64(len(records)) {
		// Drain the queue before judging: consumed trails accepted.
		waitFor(t, 5*time.Second, "survivor consumption", func() bool {
			return p.standby.Consumed() == uint64(len(records))
		})
		_ = got
	}
}
