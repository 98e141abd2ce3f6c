package bounced

import (
	"bytes"
	"net/http"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/store"
)

// study returns a Study over every record consumed so far, first
// waiting for the store to catch up with everything ingestion has
// already admitted. Snapshots are cached: while no new record has
// been consumed, the previous study is reused. The snapshot pipeline
// also becomes the live classifier for subsequent ingest metrics.
func (s *Server) study() *bounce.Study {
	s.waitConsumed(s.accepted.Load())
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	n := s.consumed.Load()
	if s.snapStudy != nil && s.snapAt == n {
		return s.snapStudy
	}
	t0 := time.Now()
	a := s.incState().Snapshot(s.cfg.Env)
	s.snapMs = float64(time.Since(t0).Nanoseconds()) / 1e6
	// The study resolves its detections on first use, so /v1/partial,
	// POST /v1/snapshot and ?section=overview never pay for them.
	st := &bounce.Study{Records: a.Records, Analysis: a}
	s.snapStudy, s.snapAt = st, n
	s.snapTaken.Add(1)
	s.liveMu.Lock()
	s.livePipe = a.Pipeline
	s.liveMu.Unlock()
	return st
}

// handleReport serves the batch report over the records ingested so
// far: the bytes are identical to `bounceanalyze -in <file>` over a
// file holding the same records (the differential test's invariant).
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sections := bounce.ParseSections(r.URL.Query().Get("section"), bounce.AllSections)
	// A misspelt name is refused before a snapshot is taken for it.
	if err := bounce.CheckSections(sections, bounce.AllSections); err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	st := s.study()
	var buf bytes.Buffer
	if err := st.WriteReport(&buf, sections); err != nil {
		httpError(w, http.StatusBadRequest, 0, 0, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

// WriteFinalReport drains nothing (call Drain first) and writes the
// final snapshot report — the shutdown flush.
func (s *Server) WriteFinalReport(w interface{ Write([]byte) (int, error) }, sections []bounce.Section) error {
	if len(sections) == 0 {
		sections = bounce.AllSections
	}
	return s.study().WriteReport(w, sections)
}

// handleSnapshot forces a fresh analysis snapshot and reports its
// shape — the explicit warm-up hook a client uses to arm the live
// classifier, or to wait until everything accepted has been folded.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	taken := s.snapTaken.Load()
	t0 := time.Now()
	st := s.study()
	elapsedMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	labeled, coverage := st.Analysis.Pipeline.ManualLabelStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"records":        st.Records.Len(),
		"templates":      st.Analysis.Pipeline.NumTemplates(),
		"labeled":        labeled,
		"label_coverage": coverage,
		"elapsed_ms":     elapsedMs,
		"cached":         s.snapTaken.Load() == taken,
	})
}

// latencyStats is the classify-latency summary on /v1/stats.
type latencyStats struct {
	Count  uint64  `json:"count"`
	P50NS  float64 `json:"p50_ns"`
	P90NS  float64 `json:"p90_ns"`
	P99NS  float64 `json:"p99_ns"`
	MeanNS float64 `json:"mean_ns"`
}

// statsResponse is the /v1/stats JSON schema. snapshot_ms_cold is the
// wall time of the newest snapshot build (each one classifies every
// record); the key keeps the name bench/ reads.
type statsResponse struct {
	Seed            uint64            `json:"seed"`
	UptimeSeconds   float64           `json:"uptime_seconds"`
	Accepted        uint64            `json:"accepted"`
	Consumed        uint64            `json:"consumed"`
	QueueDepth      int               `json:"queue_depth"`
	QueueCapacity   int               `json:"queue_capacity"`
	Batches         uint64            `json:"batches"`
	BadLines        uint64            `json:"bad_lines"`
	RecordsShed     uint64            `json:"records_shed"`
	ShedBatches     uint64            `json:"shed_batches"`
	RecordsRejected uint64            `json:"records_rejected"`
	RecordsDeduped  uint64            `json:"records_deduped"`
	DedupBatches    uint64            `json:"dedup_batches"`
	FaultsInjected  uint64            `json:"faults_injected"`
	FaultsByKind    map[string]uint64 `json:"faults_by_kind,omitempty"`
	Snapshots       uint64            `json:"snapshots"`
	SnapshotRecords uint64            `json:"snapshot_records"`
	SnapshotMsCold  float64           `json:"snapshot_ms_cold"`
	Degrees         map[string]uint64 `json:"degrees"`
	Types           map[string]uint64 `json:"types,omitempty"`
	AmbiguousLive   uint64            `json:"ambiguous_live"`
	Classify        latencyStats      `json:"classify_latency"`
	PolicyStages    []policy.StageHit `json:"policy_stages,omitempty"`
	Durability      *durabilityStats  `json:"durability,omitempty"`
	Replication     *replicationStats `json:"replication,omitempty"`
}

// replicationStats is the /v1/stats replication sub-object, present on
// durable nodes. On a primary it lists the standby registry and the
// semi-sync ack counters; on a standby it carries the sync loop's view
// of its lag behind the primary.
type replicationStats struct {
	Role           string                    `json:"role"`
	Epoch          uint64                    `json:"epoch"`
	NextIndex      uint64                    `json:"next_index"`
	Promotions     uint64                    `json:"promotions"`
	Standbys       []replication.StandbyInfo `json:"standbys,omitempty"`
	MaxLagRecords  uint64                    `json:"max_lag_records"`
	AckWaits       uint64                    `json:"ack_waits"`
	AckTimeouts    uint64                    `json:"ack_timeouts"`
	Applies        uint64                    `json:"applies"`
	AppliedRecords uint64                    `json:"applied_records"`
	Sync           *replication.SyncStatus   `json:"sync,omitempty"`
}

// replication assembles the replication sub-object.
func (j *journal) replication() *replicationStats {
	s := j.s
	standbys, maxLag := j.tracker.Snapshot()
	rs := &replicationStats{
		Role:           s.role(),
		Epoch:          s.epoch.Load(),
		NextIndex:      s.walIndex.Load(),
		Promotions:     j.promotions.Load(),
		Standbys:       standbys,
		MaxLagRecords:  maxLag,
		AckWaits:       j.replAckWaits.Load(),
		AckTimeouts:    j.replAckTimeouts.Load(),
		Applies:        j.replApplies.Load(),
		AppliedRecords: j.replAppliedRecords.Load(),
	}
	if sl := j.syncLoop.Load(); sl != nil && s.standby.Load() {
		st := sl.Status()
		rs.Sync = &st
	}
	return rs
}

// durabilityStats is the /v1/stats durability sub-object, present only
// on durable nodes (-data-dir).
type durabilityStats struct {
	FsyncMode             string       `json:"fsync_mode"`
	WALSegments           int          `json:"wal_segments"`
	WALBytes              int64        `json:"wal_bytes"`
	NextIndex             uint64       `json:"next_index"`
	AppendedRecords       uint64       `json:"appended_records"`
	AppendedBatches       uint64       `json:"appended_batches"`
	Fsync                 latencyStats `json:"fsync_latency"`
	Checkpoints           uint64       `json:"checkpoints"`
	LastCheckpointRecords uint64       `json:"last_checkpoint_records"`
	// LastCheckpointAgeSeconds is -1 until the first checkpoint exists.
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
	PrunedSegments           uint64  `json:"pruned_segments"`
	// The replication read path: WAL-tail reads served, log bytes they
	// decoded, payload bytes they shipped. shipped/scanned falling is a
	// standby reading further back than the offset index reaches.
	TailReads        uint64       `json:"tail_reads"`
	TailScannedBytes uint64       `json:"tail_scanned_bytes"`
	TailShippedBytes uint64       `json:"tail_shipped_bytes"`
	Recovery         RecoveryInfo `json:"recovery"`
}

// durability assembles the durability sub-object from engine counters.
func (j *journal) durability() *durabilityStats {
	st := j.eng.Stats()
	d := &durabilityStats{
		WALSegments:              st.Segments,
		WALBytes:                 st.WALBytes,
		NextIndex:                st.NextIndex,
		AppendedRecords:          st.AppendedRecords,
		AppendedBatches:          st.AppendedBatches,
		Checkpoints:              st.Checkpoints,
		LastCheckpointRecords:    st.LastCheckpointRecords,
		LastCheckpointAgeSeconds: -1,
		PrunedSegments:           st.PrunedSegments,
		TailReads:                st.TailReads,
		TailScannedBytes:         st.TailScannedBytes,
		TailShippedBytes:         st.TailShippedBytes,
		Recovery:                 j.recovery,
	}
	if fs, ok := j.eng.(*store.FS); ok {
		d.FsyncMode = fs.Mode().String()
	}
	if st.LastCheckpointUnix > 0 {
		d.LastCheckpointAgeSeconds = time.Since(time.Unix(st.LastCheckpointUnix, 0)).Seconds()
	}
	d.Fsync = summarize(st.Fsync)
	return d
}

// handleStats serves the service counters as JSON — the programmatic
// twin of /metrics, including the policy-chain per-stage hit counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Seed:            s.cfg.Seed,
		UptimeSeconds:   time.Since(s.startedAt).Seconds(),
		Accepted:        s.accepted.Load(),
		Consumed:        s.consumed.Load(),
		QueueDepth:      s.queue.Len(),
		QueueCapacity:   s.queue.Cap(),
		Batches:         s.batches.Load(),
		BadLines:        s.badLines.Load(),
		RecordsShed:     s.shedRecords.Load(),
		ShedBatches:     s.shedBatches.Load(),
		RecordsRejected: s.rejected.Load(),
		RecordsDeduped:  s.deduped.Load(),
		DedupBatches:    s.dedupBatches.Load(),
		FaultsInjected:  s.faults.Total(),
		Snapshots:       s.snapTaken.Load(),
		AmbiguousLive:   s.ambiguous.Load(),
		Degrees:         make(map[string]uint64, 3),
		Types:           make(map[string]uint64),
		Classify:        summarize(s.classifyLatency()),
	}
	for d := dataset.NonBounced; d <= dataset.HardBounced; d++ {
		resp.Degrees[d.String()] = s.degrees[int(d)].Load()
	}
	for _, t := range ndr.AllTypes {
		if n := s.typeHits[t].Load(); n > 0 {
			resp.Types[t.String()] = n
		}
	}
	if faults := s.faults.Counts(); len(faults) > 0 {
		resp.FaultsByKind = faults
	}
	s.snapMu.Lock()
	resp.SnapshotRecords = s.snapAt
	resp.SnapshotMsCold = s.snapMs
	s.snapMu.Unlock()
	if s.cfg.PolicyMetrics != nil {
		resp.PolicyStages = s.cfg.PolicyMetrics.Snapshot()
	}
	if s.j != nil {
		resp.Durability, resp.Replication = s.j.durability(), s.j.replication()
	}
	writeJSON(w, http.StatusOK, resp)
}
