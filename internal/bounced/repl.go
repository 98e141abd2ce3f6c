package bounced

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/store"
)

// This file is the server side of internal/replication: the primary's
// WAL-tail and checkpoint endpoints, the standby's Applier (fold
// replicated units exactly as local ingest would), promotion, and the
// semi-sync ack gate. The correctness argument for byte-identical
// failover lives on these four facts:
//
//  1. WAL order equals fold order on both nodes (commit orders the
//     append with the queue write under walMu, and ApplyBatch is one of
//     commit's sources), so a standby's analysis state is the primary's
//     replayed.
//  2. Units ship whole: a standby never applies half a client batch,
//     mirroring crash replay's uncommitted-batch discard.
//  3. With ReplAck ≥ 1, an ack reaches the client only after the
//     batch is applied on a standby, so an acked record exists on the
//     survivor by definition.
//  4. Unacked batches are retried by the client through the router and
//     land on the promoted standby, where the replicated dedup window
//     (shipped inside checkpoints and re-registered from WAL units)
//     makes the retry exactly-once.

// errStandbyIngest is the refusal standbys answer writes with; the
// router never routes here, but a direct client gets a clear pointer.
var errStandbyIngest = errors.New("standby node: writes go to the primary")

// maxReplBatch caps records per WAL-tail response regardless of the
// standby's asked max, bounding the memory one poll can pin.
const maxReplBatch = 65536

// SetSync attaches the replication sync loop driving this standby so
// /v1/promote can cut its in-flight poll and /v1/stats can report
// sync-side lag. The node must have a Store, as every standby does.
func (s *Server) SetSync(sl *replication.Standby) { s.j.syncLoop.Store(sl) }

// Epoch reports the node's current fencing epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// IsStandby reports whether the node currently refuses writes.
func (s *Server) IsStandby() bool { return s.standby.Load() }

func (s *Server) role() string {
	if s.standby.Load() {
		return "standby"
	}
	return "primary"
}

// nodeStatus is the body of /v1/repl/status and of a promotion's reply.
func (s *Server) nodeStatus() replication.NodeStatus {
	return replication.NodeStatus{
		Role:      s.role(),
		Epoch:     s.epoch.Load(),
		NextIndex: s.walIndex.Load(),
		Consumed:  s.consumed.Load(),
	}
}

// handleReplStatus serves the node's replication identity — the
// router's probe target and the failover drill's assertion surface.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

// handleReplCheckpoint ships the node's newest checkpoint — the
// standby's full-resync bootstrap. A fresh checkpoint is forced first
// so the shipped state is as close to the log end as possible, which
// minimizes the WAL tail the standby must then stream.
func (j *journal) handleReplCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := j.checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, 0, 0, err.Error())
		return
	}
	cp, err := j.eng.Recover()
	if err != nil {
		httpError(w, http.StatusInternalServerError, 0, 0, err.Error())
		return
	}
	if cp == nil {
		httpError(w, http.StatusNotFound, 0, 0, "no checkpoint exists yet")
		return
	}
	blob := store.EncodeCheckpoint(cp)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// handleWAL streams the WAL tail from ?from= as whole units,
// long-polling up to ?wait= when the log end is at from. The poll
// doubles as the standby's progress report: ?id= and ?applied= feed
// the tracker that semi-sync acks wait on.
//
//	409 Conflict — the asked offset is past this node's log end (the
//	    poller has diverged; it must resync from a checkpoint).
//	410 Gone — the tail below from was pruned by checkpointing; the
//	    poller fetches /v1/repl/checkpoint and resyncs onto it.
func (j *journal) handleWAL(w http.ResponseWriter, r *http.Request) {
	s := j.s
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, "bad from offset")
		return
	}
	if id := q.Get("id"); id != "" {
		applied := from
		if v := q.Get("applied"); v != "" {
			if a, err := strconv.ParseUint(v, 10, 64); err == nil {
				applied = a
			}
		}
		j.tracker.Observe(id, applied)
	}
	if from > s.walIndex.Load() {
		httpError(w, http.StatusConflict, 0, 0,
			fmt.Sprintf("offset %d is past this node's log end %d", from, s.walIndex.Load()))
		return
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		if wait, err = time.ParseDuration(v); err != nil || wait < 0 {
			httpError(w, http.StatusBadRequest, 0, 0, "bad wait duration")
			return
		}
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
	}
	max := 8192
	if v := q.Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil || max <= 0 {
			httpError(w, http.StatusBadRequest, 0, 0, "bad max")
			return
		}
		if max > maxReplBatch {
			max = maxReplBatch
		}
	}
	if wait > 0 {
		// The tracker advances on sync, not append, so a wake means the
		// tail bytes are already visible to ReadTail.
		j.tracker.WaitNext(from, wait)
	}

	// The writer is created lazily on the first unit so a truncated
	// tail can still turn into a clean 410 instead of a torn 200.
	var tw *replication.TailWriter
	sent := 0
	_, err = j.eng.ReadTail(from, func(start uint64, b store.RawBatch) error {
		if tw == nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			if tw, err = replication.NewTailWriter(w, from); err != nil {
				return err
			}
		}
		if err := tw.Unit(start, b.ID, b.Payloads); err != nil {
			return err
		}
		sent += len(b.Payloads)
		if sent >= max {
			return store.ErrStopTail
		}
		return nil
	})
	if err != nil {
		if tw == nil {
			if errors.Is(err, store.ErrTailTruncated) {
				httpError(w, http.StatusGone, 0, 0, err.Error())
			} else {
				httpError(w, http.StatusInternalServerError, 0, 0, err.Error())
			}
			return
		}
		// Headers are gone; the stream stays torn and the standby's
		// reader discards the unfinished unit, exactly like crash replay.
		log.Printf("bounced: wal tail stream from %d: %v", from, err)
		return
	}
	if tw == nil {
		if tw, err = replication.NewTailWriter(w, from); err != nil {
			return
		}
	}
	if err := tw.End(s.walIndex.Load(), s.epoch.Load()); err != nil {
		log.Printf("bounced: wal tail stream end: %v", err)
	}
}

// handlePromote flips a standby to primary — the operator's manual
// failover. On a node with an attached sync loop the promotion goes
// through it, cutting any in-flight poll; already-primary nodes 409.
func (j *journal) handlePromote(w http.ResponseWriter, r *http.Request) {
	s := j.s
	if !s.standby.Load() {
		httpError(w, http.StatusConflict, 0, 0, "already primary")
		return
	}
	if sl := j.syncLoop.Load(); sl != nil {
		sl.Promote("manual POST " + replication.PathPromote)
	} else {
		s.Promote(s.epoch.Load()+1, "manual POST "+replication.PathPromote)
	}
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

// AppliedIndex reports how far this node's log reaches — the offset
// the sync loop polls from. Implements replication.Applier.
func (s *Server) AppliedIndex() uint64 { return s.walIndex.Load() }

// ApplyBatch commits one replicated WAL unit: the third source of
// commit, so the standby's log and fold order — and therefore its
// report bytes — are the primary's by construction. A unit straddling
// the local log end (a mid-batch checkpoint boundary after a resync) is
// trimmed to its unapplied suffix, but registers its full original
// count: a client retry after failover must be acked with the number
// the primary admitted. Implements replication.Applier.
func (s *Server) ApplyBatch(u *replication.Unit) error {
	if !s.standby.Load() {
		return errors.New("bounced: ApplyBatch on a primary")
	}
	if s.closed.Load() {
		return ErrIngestClosed
	}
	cur := s.walIndex.Load()
	if u.Start > cur {
		return fmt.Errorf("bounced: replication gap: unit starts at %d, local log ends at %d", u.Start, cur)
	}
	if u.Start+uint64(len(u.Payloads)) <= cur {
		// Wholly applied already (a re-sent overlap); only make sure the
		// batch ID still dedups client retries.
		if u.ID != "" {
			s.dedup.register(u.ID, len(u.Payloads))
		}
		return nil
	}
	payloads := u.Payloads[cur-u.Start:]
	recs := getRecords(len(payloads))[:len(payloads)]
	defer putRecords(recs)
	dec := dataset.GetDecoder()
	defer dataset.PutDecoder(dec)
	for i, p := range payloads {
		if err := dec.Decode(p, &recs[i]); err != nil {
			return fmt.Errorf("bounced: replicated record %d fails to decode: %w", cur+uint64(i), err)
		}
	}
	// Units ship whole, so one larger than this node's queue is still
	// one reservation (tryAdmit grants it on an idle queue).
	if !s.admitWait(len(recs)) {
		return ErrIngestClosed
	}
	// The log gets the bytes the records were decoded from — each passed
	// the stream's CRC and the decoder — not a second encoding of them.
	_, end, err := s.commit(u.ID, len(u.Payloads), recs, payloads)
	if err != nil && !errors.Is(err, ErrIngestClosed) {
		return err
	}
	if serr := s.j.sync(end); serr != nil {
		return serr
	}
	s.j.replApplies.Add(1)
	s.j.replAppliedRecords.Add(uint64(len(recs)))
	return err
}

// ResetTo discards this standby's state and restores from a checkpoint
// shipped by the primary — the full-resync path when the primary
// pruned the WAL tail past our offset (or we diverged). Implements
// replication.Applier.
func (s *Server) ResetTo(cp *store.Checkpoint) error {
	if !s.standby.Load() {
		return errors.New("bounced: ResetTo on a primary")
	}
	// Quiesce: the sync loop is the caller, so no ApplyBatch is in
	// flight and ingest is refused; draining the queue leaves the
	// consumer idle and the old accumulator untouched from here on.
	s.waitConsumed(s.accepted.Load())
	j := s.j
	j.cpMu.Lock()
	defer j.cpMu.Unlock()
	inc, err := restoreIncremental(cp)
	if err != nil {
		return err
	}
	if err := s.dedup.reset(cp.Sections[sectionDedup]); err != nil {
		return fmt.Errorf("bounced: checkpoint %s section: %w", sectionDedup, err)
	}
	epoch := replEpoch(cp)
	if err := j.eng.Reset(cp.Records); err != nil {
		return err
	}
	// Persist the restore point immediately: a crash between here and
	// the next checkpoint must not reboot into an empty log.
	if err := j.eng.Checkpoint(cp); err != nil {
		return err
	}
	s.incMu.Lock()
	old := s.inc
	s.inc = inc
	s.incMu.Unlock()
	old.StopTrainer()
	inc.StartTrainer()
	if epoch > 0 {
		s.epoch.Store(epoch)
	}
	s.walIndex.Store(cp.Records)
	j.tracker.Reset(cp.Records)
	j.lastCP.Store(cp.Records)
	j.lastCPEpoch.Store(s.epoch.Load())
	s.consumedMu.Lock()
	s.accepted.Store(cp.Records)
	s.consumed.Store(cp.Records)
	s.consumedCond.Broadcast()
	s.consumedMu.Unlock()
	s.snapMu.Lock()
	s.snapStudy, s.snapAt = nil, 0
	s.snapMu.Unlock()
	s.partialMu.Lock()
	s.partialFor, s.partialBytes = nil, nil
	s.partialMu.Unlock()
	return nil
}

// Promote flips the node from standby to primary under the given
// epoch. Idempotent; reports whether this call won the flip. The new
// epoch is checkpointed right away so a post-promotion restart cannot
// resurrect the old one (which would un-fence a zombie); Drain and
// Abort wait for that checkpoint before they close the store.
// Implements replication.Applier.
func (s *Server) Promote(epoch uint64, reason string) bool {
	if !s.standby.CompareAndSwap(true, false) {
		return false
	}
	if epoch > s.epoch.Load() {
		s.epoch.Store(epoch)
	}
	s.j.promotions.Add(1)
	// A new primary's first report runs cold, as a restored or resynced
	// node's does: it starts from no carried snapshot state.
	s.incState().DropCarried()
	log.Printf("bounced: promoted to primary at epoch %d: %s", s.epoch.Load(), reason)
	s.j.promotionCheckpoint()
	return true
}

// waitReplicated is the semi-sync ack gate: with ReplAck > 0 an ingest
// response may leave only after that many standbys confirm they
// applied through end. On timeout the batch stays in the local WAL but
// the client gets a retryable error — it must not treat the records as
// safely delivered yet.
func (j *journal) waitReplicated(end uint64) error {
	n := j.s.cfg.ReplAck
	if n <= 0 || j.s.standby.Load() {
		return nil
	}
	timeout := j.s.cfg.ReplAckTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	j.replAckWaits.Add(1)
	if !j.tracker.WaitApplied(end, n, timeout) {
		j.replAckTimeouts.Add(1)
		return fmt.Errorf("bounced: %d standby(s) did not confirm WAL index %d within %s; retry", n, end, timeout)
	}
	return nil
}
