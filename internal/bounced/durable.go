package bounced

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/store"
)

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
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

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
		blob, ok := cp.Sections[sectionIncremental]
		if !ok {
			return nil, nil, store.TailInfo{}, fmt.Errorf("bounced: checkpoint at %d records has no %q section", cp.Records, sectionIncremental)
		}
		if inc, err = analysis.RestoreIncremental(blob); err != nil {
			return nil, nil, store.TailInfo{}, fmt.Errorf("bounced: checkpoint %s section: %w", sectionIncremental, err)
		}
		if got := uint64(inc.Len()); got != cp.Records {
			return nil, nil, store.TailInfo{}, fmt.Errorf("bounced: checkpoint covers %d records but its state holds %d", cp.Records, got)
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

// recover is New's boot path on durable nodes: restore the analysis
// state and dedup window from the newest checkpoint, replay the WAL
// tail, and re-register tail batches so a client retrying an acked
// batch from before the crash still dedups.
func (s *Server) recover() error {
	inc, cp, info, err := recoverState(s.eng, s.cfg.Pipeline)
	if err != nil {
		return err
	}
	s.inc = inc
	var from uint64
	if cp != nil {
		from = cp.Records
		if blob, ok := cp.Sections[sectionDedup]; ok {
			if err := s.dedup.restore(blob); err != nil {
				return fmt.Errorf("bounced: checkpoint %s section: %w", sectionDedup, err)
			}
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
	if cp != nil {
		if epoch := replEpoch(cp); epoch > s.epoch.Load() {
			s.epoch.Store(epoch)
		}
	}
	s.lastCP.Store(from)
	s.recovery = RecoveryInfo{
		CheckpointRecords:  from,
		Replayed:           info.Replayed,
		Batches:            len(info.Batches),
		DroppedUncommitted: info.DroppedUncommitted,
		TornTruncated:      info.TornTruncated,
	}
	return nil
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

// CheckpointNow captures the analysis state at a record boundary and
// persists it — with the dedup window and the replication epoch — as
// one atomic checkpoint, then prunes WAL segments the retained
// checkpoints fully cover. Returns nil without writing when no record
// has been consumed since the last checkpoint. Safe to call
// concurrently with ingestion; the capture runs under the analysis
// locks, the (expensive) serialization and file writes do not.
func (s *Server) CheckpointNow() error {
	if s.eng == nil {
		return errors.New("bounced: no storage engine configured")
	}
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	st := s.incState().CaptureState()
	n := uint64(st.Records())
	epoch := s.epoch.Load()
	// An epoch bump alone (promotion with no new records) still forces
	// a write: the fencing token must survive a restart.
	if n == s.lastCP.Load() && epoch == s.lastCPEpoch.Load() {
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
		sectionDedup:       s.dedup.marshal(),
		sectionRepl:        replBody,
	}}
	if err := s.eng.Checkpoint(cp); err != nil {
		return err
	}
	s.lastCP.Store(n)
	s.lastCPEpoch.Store(epoch)
	return nil
}

// checkpointLoop checkpoints on a fixed cadence until Drain/Abort.
func (s *Server) checkpointLoop(every time.Duration) {
	defer s.cpWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.cpStop:
			return
		case <-t.C:
			if err := s.CheckpointNow(); err != nil && !s.closed.Load() {
				log.Printf("bounced: checkpoint: %v", err)
			}
		}
	}
}

// syncWAL makes every prior append durable per the engine's fsync mode
// — the group-commit point an ingest ack waits on. The replication
// tracker advances here, not at append time, so a woken standby poll
// always finds the promised tail bytes readable.
func (s *Server) syncWAL() error {
	if s.eng == nil {
		return nil
	}
	if err := s.eng.Sync(); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	if s.tracker != nil {
		s.tracker.Advance(s.walIndex.Load())
	}
	return nil
}

// handleCheckpoint forces a checkpoint — the operational hook (and the
// crash drill's way to pin a mid-stream checkpoint deterministically).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, 0, 0, "POST only")
		return
	}
	if s.eng == nil {
		httpError(w, http.StatusNotFound, 0, 0, "no storage engine configured (-data-dir)")
		return
	}
	if err := s.CheckpointNow(); err != nil {
		httpError(w, http.StatusInternalServerError, 0, 0, err.Error())
		return
	}
	st := s.eng.Stats()
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
