package bounced_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/replication"
	"repro/internal/store"
)

// TestFailoverReportByteIdentical is the subsystem's acceptance test:
// a primary semi-sync-replicating to a standby dies mid-stream, the
// standby promotes, the remaining traffic lands on the survivor, and
// its final report is byte-identical to batch over the same corpus —
// with a pre-failover batch ID still deduping on the promoted node
// (exactly-once across the failover).
func TestFailoverReportByteIdentical(t *testing.T) {
	records, env := fixture(t)
	want := batchReport(t, records, env, bounce.AllSections)
	s := boot(t, row{standby: true, store: memEngine, cfg: bounced.Config{Env: env}}).sets[0]

	const per = 64
	cut := len(records) / per / 2 * per
	next := sendBatches(t, s.primary.url, "fo", 0, records[:cut], per)
	// Semi-sync acks mean every acked record is already applied on the
	// standby — the kill below cannot lose any of them.
	if got, want := s.standby.srv.AppliedIndex(), s.primary.srv.AppliedIndex(); got != want {
		t.Fatalf("standby applied %d, primary log end %d (semi-sync ack leaked ahead)", got, want)
	}

	s.primary.kill()
	s.promote(t)
	if s.standby.srv.IsStandby() {
		t.Fatal("node still reports standby after promote")
	}
	if got := s.standby.srv.Epoch(); got != 2 {
		t.Fatalf("promoted epoch = %d, want 2", got)
	}

	// A client retrying a pre-failover batch against the survivor must
	// dedup with the original count — the replicated idempotency window.
	ir := send(t, s.standby.url, batch{id: "fo-0", recs: records[:per]})
	if ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != per {
		t.Fatalf("pre-failover batch replay: status %d deduped %v accepted %d, want 200/true/%d",
			ir.status, ir.Deduped, ir.Accepted, per)
	}

	sendBatches(t, s.standby.url, "fo", next, records[cut:], per)
	if got := get(t, s.standby.url+reportAll, http.StatusOK, nil); !bytes.Equal(got, want) {
		t.Fatalf("promoted standby report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
	if body := get(t, s.standby.url+replication.PathStatus, http.StatusOK, nil); !strings.Contains(string(body), `"role": "primary"`) {
		t.Fatalf("promoted node status: %s", body)
	}
}

// TestPromoteThenKillKeepsEpoch: the checkpoint that fences the old
// epoch is taken on a goroutine of its own after a promotion, and a
// node stopped right after promoting must still have written it — the
// stop waits for it — or a restart comes back at the old epoch and
// un-fences a zombie.
func TestPromoteThenKillKeepsEpoch(t *testing.T) {
	records, env := fixture(t)
	s := boot(t, row{standby: true, store: fsEngine, cfg: bounced.Config{Env: env}}).sets[0]
	sendBatches(t, s.primary.url, "pk", 0, records, 256)
	s.primary.kill()
	s.promote(t)
	s.standby.kill()
	s.standby.restart()
	if got := s.standby.srv.Epoch(); got != 2 {
		t.Fatalf("epoch after promote, kill and restart = %d, want 2", got)
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
	b := batch{id: "gate-1", recs: records[:32]}
	c := boot(t, row{store: memEngine, cfg: bounced.Config{Env: env, ReplAck: 1, ReplAckTimeout: 100 * time.Millisecond}})
	s := c.sets[0]

	if ir := send(t, s.primary.url, b); ir.status != http.StatusServiceUnavailable {
		t.Fatalf("ack without standby: status %d, want 503", ir.status)
	}
	// The batch is committed locally; the retry takes the dedup path,
	// which must also hold the ack until a standby confirms.
	if ir := send(t, s.primary.url, b); ir.status != http.StatusServiceUnavailable {
		t.Fatalf("dedup-path ack without standby: status %d, want 503", ir.status)
	}

	c.attach(s, "s1")
	waitFor(t, 5*time.Second, "standby catch-up", func() bool {
		return s.standby.srv.AppliedIndex() == s.primary.srv.AppliedIndex()
	})
	if ir := send(t, s.primary.url, b); ir.status != http.StatusOK || !ir.Deduped || ir.Accepted != len(b.recs) {
		t.Fatalf("retry with standby attached: status %d deduped %v accepted %d", ir.status, ir.Deduped, ir.Accepted)
	}

	stats := string(get(t, s.primary.url+"/v1/stats", http.StatusOK, nil))
	if !strings.Contains(stats, `"ack_timeouts": `) {
		t.Fatal("stats missing replication block")
	}
	if !strings.Contains(stats, `"role": "primary"`) {
		t.Fatal("stats replication block missing role")
	}
}

// TestStandbyRefusesWrites: a standby answers direct ingest with a
// retryable 503 pointing at the primary.
func TestStandbyRefusesWrites(t *testing.T) {
	records, env := fixture(t)
	standby := single(t, row{store: memEngine, cfg: bounced.Config{Env: env, Standby: true}})

	ir := send(t, standby.url, batch{recs: records[:4]})
	if ir.status != http.StatusServiceUnavailable || !strings.Contains(ir.Error, "standby") {
		t.Fatalf("standby ingest: status %d error %q, want 503 naming the standby role", ir.status, ir.Error)
	}
	if ir := send(t, standby.url, batch{id: "sb-1", recs: records[:4]}); ir.status != http.StatusServiceUnavailable {
		t.Fatalf("standby batch ingest: status %d, want 503", ir.status)
	}
}

// TestApplyBatchDecodeErrorNamesRecord: when a replicated unit straddles
// the standby's log end, only its unapplied suffix is decoded, and a
// payload in it that fails to decode must be reported under its index
// in the log, not its offset in the suffix counted from the unit start.
func TestApplyBatchDecodeErrorNamesRecord(t *testing.T) {
	records, env := fixture(t)
	standby := single(t, row{store: memEngine, cfg: bounced.Config{Env: env, Standby: true}}).srv
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
	c := boot(t, row{store: memEngine, cfg: bounced.Config{Env: env, QueueDepth: 8192}})
	s := c.sets[0]

	if ir := send(t, s.primary.url, batch{id: "rs-0", recs: records[:half]}); ir.status != http.StatusOK {
		t.Fatalf("primary ingest: %d %s", ir.status, ir.Error)
	}
	// Checkpoint prunes the Mem engine's whole tail: offset 0 is gone —
	// once the consumer has folded the batch, since a checkpoint covers
	// only consumed records and the batch is one unprunable unit.
	waitConsumed(t, s.primary.srv, half)
	do(t, http.MethodPost, s.primary.url+"/v1/checkpoint")

	c.attach(s, "s1")
	caughtUp := func() bool { return s.standby.srv.AppliedIndex() == s.primary.srv.AppliedIndex() }
	waitFor(t, 5*time.Second, "resync catch-up", caughtUp)
	if got := s.sync.Status().Resyncs; got != 1 {
		t.Fatalf("resyncs = %d, want 1", got)
	}
	if ir := send(t, s.primary.url, batch{id: "rs-1", recs: records[half:]}); ir.status != http.StatusOK {
		t.Fatalf("primary ingest after resync: %d %s", ir.status, ir.Error)
	}
	waitFor(t, 5*time.Second, "incremental catch-up", caughtUp)
	want := get(t, s.primary.url+reportAll, http.StatusOK, nil)
	if got := get(t, s.standby.url+reportAll, http.StatusOK, nil); !bytes.Equal(got, want) {
		t.Fatalf("resynced standby report diverges from primary (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAutoFailoverPromotes: a standby with a heartbeat timeout
// promotes itself when the primary stops answering, keeping every
// replicated record.
func TestAutoFailoverPromotes(t *testing.T) {
	records, env := fixture(t)
	s := boot(t, row{standby: true, store: memEngine, failover: 400 * time.Millisecond, cfg: bounced.Config{Env: env}}).sets[0]

	n := len(records) / 4
	if ir := send(t, s.primary.url, batch{id: "af-0", recs: records[:n]}); ir.status != http.StatusOK {
		t.Fatalf("ingest: %d %s", ir.status, ir.Error)
	}
	applied := s.standby.srv.AppliedIndex()
	if applied != uint64(n) {
		t.Fatalf("standby applied %d, want %d", applied, n)
	}

	s.primary.kill()
	waitFor(t, 5*time.Second, "auto-promotion", func() bool { return !s.standby.srv.IsStandby() })
	if got := s.standby.srv.Epoch(); got != 2 {
		t.Fatalf("epoch after auto-failover = %d, want 2", got)
	}
	if got := s.standby.srv.AppliedIndex(); got != applied {
		t.Fatalf("records across failover: applied %d, want %d (zero loss)", got, applied)
	}
}

// TestRouterFailoverEndToEnd drives the full cluster shape the chaos
// drill scripts: client → router → primary, primary dies, standby
// promotes, the router re-elects it, and the client's retried batch
// lands exactly once.
func TestRouterFailoverEndToEnd(t *testing.T) {
	records, env := fixture(t)
	s := boot(t, row{standby: true, router: true, store: memEngine, cfg: bounced.Config{Env: env}}).sets[0]

	half := len(records) / 2
	if ir := send(t, s.url, batch{id: "rt-0", recs: records[:half]}); ir.status != http.StatusOK || ir.Accepted != half {
		t.Fatalf("ingest via router: %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}

	s.primary.kill()
	s.promote(t)

	// The batch retry a client owes after a failover-window error must
	// dedup; fresh traffic flows to the survivor.
	if ir := send(t, s.url, batch{id: "rt-0", recs: records[:half]}); ir.status != http.StatusOK || !ir.Deduped {
		t.Fatalf("replay via router: status %d deduped %v", ir.status, ir.Deduped)
	}
	if ir := send(t, s.url, batch{id: "rt-1", recs: records[half:]}); ir.status != http.StatusOK || ir.Accepted != len(records)-half {
		t.Fatalf("fresh batch via router: %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
	}
	// Consumed trails accepted: the survivor must fold every record.
	waitConsumed(t, s.standby.srv, len(records))
}
