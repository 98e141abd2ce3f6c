package bounced

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/replication"
	"repro/internal/store"
)

// journal is everything a node has only with Config.Store: the storage
// engine, checkpointing and recovery (this file), and the replication
// built on the log — tail shipping, the standby registry, semi-sync
// acks, promotion (repl.go). New allocates one iff a store is
// configured; Server tests the pointer where the two kinds of node
// part ways and mounts the journal's endpoints only when it is set.
type journal struct {
	s   *Server
	eng store.Engine

	// cpMu serializes checkpoint writers; lastCP and lastCPEpoch are the
	// record count and epoch the newest checkpoint covers (the skip test
	// for idle checkpoints).
	cpMu        sync.Mutex
	lastCP      atomic.Uint64
	lastCPEpoch atomic.Uint64
	cpStop      chan struct{}
	cpWG        sync.WaitGroup // the checkpoint loop and promotion checkpoints
	recovery    RecoveryInfo

	// bgMu orders promotionCheckpoint's cpWG.Add before close's
	// cpWG.Wait: once closing is set, no checkpoint goroutine starts.
	bgMu    sync.Mutex
	closing bool

	// tracker wakes standby long-polls when the log end advances past a
	// synced prefix and gates semi-sync acks; syncLoop is the loop
	// driving this node while it is a standby.
	tracker            *replication.Tracker
	syncLoop           atomic.Pointer[replication.Standby]
	promotions         atomic.Uint64
	replApplies        atomic.Uint64
	replAppliedRecords atomic.Uint64
	replAckWaits       atomic.Uint64
	replAckTimeouts    atomic.Uint64
}

// openJournal is New's boot path on a durable node: restore the
// analysis state, dedup window and epoch from the newest checkpoint,
// replay the WAL tail and re-register its batches — so a client
// retrying an acked batch from before the crash still dedups — then
// point the replication offsets at the recovered log end and start the
// background checkpoints.
func openJournal(s *Server) (*journal, error) {
	j := &journal{s: s, eng: s.cfg.Store}
	inc, cp, info, err := recoverState(j.eng, analysis.PipelineConfig{})
	if err != nil {
		return nil, err
	}
	s.inc = inc
	var from uint64
	if cp != nil {
		from = cp.Records
		if blob, ok := cp.Sections[sectionDedup]; ok {
			if err := s.dedup.restore(blob); err != nil {
				return nil, fmt.Errorf("bounced: checkpoint %s section: %w", sectionDedup, err)
			}
		}
		if epoch := replEpoch(cp); epoch > s.epoch.Load() {
			s.epoch.Store(epoch)
		}
	}
	// Sorted for a deterministic FIFO eviction order; the window is
	// far larger than any plausible tail batch count.
	ids := make([]string, 0, len(info.Batches))
	for id := range info.Batches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.dedup.register(id, info.Batches[id])
	}
	j.recovery = RecoveryInfo{
		CheckpointRecords:  from,
		Replayed:           info.Replayed,
		Batches:            len(info.Batches),
		DroppedUncommitted: info.DroppedUncommitted,
		TornTruncated:      info.TornTruncated,
	}
	j.lastCP.Store(from)
	j.lastCPEpoch.Store(s.epoch.Load())
	next := j.eng.Stats().NextIndex
	s.walIndex.Store(next)
	j.tracker = replication.NewTracker(next)
	if every := s.cfg.CheckpointInterval; every > 0 {
		j.cpStop = make(chan struct{})
		j.cpWG.Add(1)
		go j.checkpointLoop(every)
	}
	return j, nil
}

// close stops the checkpoint loop and closes the engine. The final
// checkpoint of a graceful shutdown makes the next boot replay-free;
// failing to take it only costs the restart a WAL-tail replay.
func (j *journal) close(graceful bool) {
	j.bgMu.Lock()
	j.closing = true
	j.bgMu.Unlock()
	if j.cpStop != nil {
		close(j.cpStop)
		j.cpStop = nil
	}
	j.cpWG.Wait()
	if graceful {
		if err := j.checkpoint(); err != nil {
			log.Printf("bounced: final checkpoint: %v", err)
		}
	}
	if err := j.eng.Close(); err != nil {
		log.Printf("bounced: store close: %v", err)
	}
}

// Checkpoint section names. The storage engine treats sections as
// opaque; these are the server's composition of them. A section under
// any other name (older builds wrote a "partial" one) is never read.
const (
	// sectionIncremental is the analysis accumulator: slab store, drain
	// trees, training watermark (analysis.IncrementalState).
	sectionIncremental = "incremental"
	// sectionDedup is the X-Batch-Id idempotency window, so a client
	// replaying an already-acked batch after a crash still dedups.
	sectionDedup = "dedup"
	// sectionRepl carries the replication epoch, the fencing token a
	// promotion bumps. Persisting it in the checkpoint is what keeps a
	// promoted node's epoch ahead of the dead primary's across its own
	// restarts — and what ships it to standbys during a resync.
	sectionRepl = "repl"
)

// replSectionBody is the JSON layout of sectionRepl.
type replSectionBody struct {
	Epoch uint64 `json:"epoch"`
}

// replEpoch decodes a checkpoint's epoch; 0 when the section is
// missing (pre-replication checkpoints) or malformed.
func replEpoch(cp *store.Checkpoint) uint64 {
	blob, ok := cp.Sections[sectionRepl]
	if !ok {
		return 0
	}
	var body replSectionBody
	if err := json.Unmarshal(blob, &body); err != nil {
		return 0
	}
	return body.Epoch
}

// RecoveryInfo describes what New restored from the storage engine.
type RecoveryInfo struct {
	// CheckpointRecords is the record count the restored checkpoint
	// covered (0 when the directory held none).
	CheckpointRecords uint64 `json:"checkpoint_records"`
	// Replayed is how many WAL-tail records were folded back in.
	Replayed int `json:"replayed"`
	// Batches is how many committed batch IDs the tail re-registered
	// into the dedup window.
	Batches int `json:"batches"`
	// DroppedUncommitted counts records discarded from a trailing WAL
	// batch whose commit marker never hit the disk (never acked; the
	// client retries it).
	DroppedUncommitted int `json:"dropped_uncommitted"`
	// TornTruncated reports that a torn trailing write was cut from
	// the WAL — the kill -9 signature.
	TornTruncated bool `json:"torn_truncated"`
}

// Recovery reports what New restored from the storage engine; zero for
// memory-only servers.
func (s *Server) Recovery() RecoveryInfo {
	if s.j == nil {
		return RecoveryInfo{}
	}
	return s.j.recovery
}

// restoreIncremental decodes the analysis accumulator a checkpoint
// carries and checks it against the record count the checkpoint claims.
func restoreIncremental(cp *store.Checkpoint) (*analysis.Incremental, error) {
	blob, ok := cp.Sections[sectionIncremental]
	if !ok {
		return nil, fmt.Errorf("bounced: checkpoint at %d records has no %q section", cp.Records, sectionIncremental)
	}
	inc, err := analysis.RestoreIncremental(blob)
	if err != nil {
		return nil, fmt.Errorf("bounced: checkpoint %s section: %w", sectionIncremental, err)
	}
	if got := uint64(inc.Len()); got != cp.Records {
		return nil, fmt.Errorf("bounced: checkpoint covers %d records but its state holds %d", cp.Records, got)
	}
	return inc, nil
}

// recoverState rebuilds an analysis accumulator from eng: the newest
// decodable checkpoint (whose embedded pipeline config wins over cfg),
// then a WAL-tail replay in append order. Shared by the server boot
// path and the offline RecoverIncremental helper.
func recoverState(eng store.Engine, cfg analysis.PipelineConfig) (*analysis.Incremental, *store.Checkpoint, store.TailInfo, error) {
	cp, err := eng.Recover()
	if err != nil {
		return nil, nil, store.TailInfo{}, err
	}
	inc := analysis.NewIncremental(cfg)
	var from uint64
	if cp != nil {
		if inc, err = restoreIncremental(cp); err != nil {
			return nil, nil, store.TailInfo{}, err
		}
		from = cp.Records
	}
	info, err := eng.Tail(from, func(_ uint64, rec *dataset.Record) error {
		inc.Add(rec) // Add clones; the pointer is only valid in-callback
		return nil
	})
	if err != nil {
		return nil, nil, info, err
	}
	if got := uint64(inc.Len()); got != info.NextIndex {
		return nil, nil, info, fmt.Errorf("bounced: recovery holds %d records, WAL index says %d", got, info.NextIndex)
	}
	return inc, cp, info, nil
}

// RecoverIncremental rebuilds the analysis accumulator from a bounced
// data directory without starting a server — the offline-analysis path
// (bounceanalyze -data-dir). The directory is opened read-only, so a
// live bounced on the same directory is unaffected; a torn WAL tail is
// skipped during replay but left on disk.
func RecoverIncremental(dir string, cfg analysis.PipelineConfig) (*analysis.Incremental, store.TailInfo, error) {
	eng, err := store.Open(store.FSOptions{Dir: dir, ReadOnly: true, Logf: log.Printf})
	if err != nil {
		return nil, store.TailInfo{}, err
	}
	defer eng.Close()
	inc, _, info, err := recoverState(eng, cfg)
	return inc, info, err
}

// CheckpointNow forces a checkpoint (see journal.checkpoint); an error
// on a memory-only server.
func (s *Server) CheckpointNow() error {
	if s.j == nil {
		return errors.New("bounced: no storage engine configured")
	}
	return s.j.checkpoint()
}

// checkpoint captures the analysis state at a record boundary and
// persists it — with the dedup window and the replication epoch — as
// one atomic checkpoint, then prunes WAL segments the retained
// checkpoints fully cover. Returns nil without writing when no record
// has been consumed since the last checkpoint. Safe to call
// concurrently with ingestion; the capture runs under the analysis
// locks, the (expensive) serialization and file writes do not.
func (j *journal) checkpoint() error {
	j.cpMu.Lock()
	defer j.cpMu.Unlock()
	st := j.s.incState().CaptureState()
	n := uint64(st.Records())
	epoch := j.s.epoch.Load()
	// An epoch bump alone (promotion with no new records) still forces
	// a write: the fencing token must survive a restart.
	if n == j.lastCP.Load() && epoch == j.lastCPEpoch.Load() {
		return nil
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		return err
	}
	replBody, _ := json.Marshal(replSectionBody{Epoch: epoch})
	// The dedup window is captured after the analysis state: it may
	// include batches newer than n, which is safe — their records sit in
	// the WAL tail past n and replay re-registers them idempotently.
	// The reverse order would lose a batch registered between the two
	// captures whose records were already consumed.
	cp := &store.Checkpoint{Records: n, Sections: map[string][]byte{
		sectionIncremental: blob,
		sectionDedup:       j.s.dedup.marshal(),
		sectionRepl:        replBody,
	}}
	if err := j.eng.Checkpoint(cp); err != nil {
		return err
	}
	j.lastCP.Store(n)
	j.lastCPEpoch.Store(epoch)
	return nil
}

// promotionCheckpoint checkpoints on a goroutine that close waits for,
// so the new epoch is on disk before the engine closes — or, once close
// has begun, the checkpoint is not started (a graceful close takes its
// own).
func (j *journal) promotionCheckpoint() {
	j.bgMu.Lock()
	defer j.bgMu.Unlock()
	if j.closing {
		return
	}
	j.cpWG.Add(1)
	go func() {
		defer j.cpWG.Done()
		if err := j.checkpoint(); err != nil {
			log.Printf("bounced: post-promotion checkpoint: %v", err)
		}
	}()
}

// checkpointLoop checkpoints on a fixed cadence until Drain/Abort.
func (j *journal) checkpointLoop(every time.Duration) {
	defer j.cpWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-j.cpStop:
			return
		case <-t.C:
			if err := j.checkpoint(); err != nil && !j.s.closed.Load() {
				log.Printf("bounced: checkpoint: %v", err)
			}
		}
	}
}

// sync makes every append up to the log end the caller committed, end,
// durable per the engine's fsync mode — the group-commit point an
// ingest ack waits on. The replication tracker advances here, not at
// append time, and to end, not to wherever the log has got to since:
// another connection's commit can append the moment the fsync lets go
// of the engine, and a standby must not be woken for, or apply, a unit
// no fsync has covered — it would be ahead of a primary that lost
// power.
func (j *journal) sync(end uint64) error {
	if err := j.eng.Sync(); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	j.tracker.Advance(end)
	return nil
}

// handleCheckpoint forces a checkpoint — the operational hook (and the
// crash drill's way to pin a mid-stream checkpoint deterministically).
func (j *journal) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := j.checkpoint(); err != nil {
		httpError(w, http.StatusInternalServerError, 0, 0, err.Error())
		return
	}
	st := j.eng.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"checkpoint_records": st.LastCheckpointRecords,
		"wal_segments":       st.Segments,
		"wal_bytes":          st.WALBytes,
	})
}

// dedupSnapshot is the JSON layout of the dedup checkpoint section:
// parallel arrays in FIFO order, so eviction order survives restarts.
type dedupSnapshot struct {
	IDs    []string `json:"ids"`
	Counts []int    `json:"counts"`
}

func (d *dedupWindow) marshal() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := dedupSnapshot{IDs: append([]string(nil), d.order...), Counts: make([]int, len(d.order))}
	for i, id := range d.order {
		snap.Counts[i] = d.seen[id]
	}
	b, err := json.Marshal(snap)
	if err != nil {
		// Strings and ints cannot fail to marshal; keep the section
		// well-formed regardless.
		return []byte(`{"ids":[],"counts":[]}`)
	}
	return b
}

// reset discards the window and restores it from a checkpoint section
// (empty blob = empty window) — the standby full-resync path, where
// the local history is being replaced, not merged.
func (d *dedupWindow) reset(b []byte) error {
	d.mu.Lock()
	d.seen = make(map[string]int, d.cap)
	d.order = nil
	d.mu.Unlock()
	if len(b) == 0 {
		return nil
	}
	return d.restore(b)
}

func (d *dedupWindow) restore(b []byte) error {
	var snap dedupSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return err
	}
	if len(snap.IDs) != len(snap.Counts) {
		return fmt.Errorf("dedup snapshot has %d ids but %d counts", len(snap.IDs), len(snap.Counts))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, id := range snap.IDs {
		d.add(id, snap.Counts[i])
	}
	return nil
}
