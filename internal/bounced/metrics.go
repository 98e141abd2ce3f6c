package bounced

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/stats"
	"repro/internal/store"
)

// latencyBounds are the classify-latency histogram bucket upper bounds
// in nanoseconds (500ns .. ~8ms, doubling), plus an implicit +Inf.
var latencyBounds = []int64{
	500, 1000, 2000, 4000, 8000, 16000, 32000, 64000,
	128000, 256000, 512000, 1024000, 2048000, 4096000, 8192000,
}

// classifyLatency copies the classify-latency histogram out from under
// its lock.
func (s *Server) classifyLatency() stats.Histogram {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.hist.Clone()
}

// scrape is one walk over a role's state, rendered either as the
// Prometheus text of /metrics or as the JSON of /v1/stats. Every
// exported value is one call: name, help and type place it on /metrics,
// key places it on /v1/stats, and an empty name or key leaves that side
// out. Values keep their Go type, so an integer never prints as a float.
type scrape struct {
	prom bool
	b    []byte
}

// family opens a /metrics family, whose samples the caller writes.
func (w *scrape) family(name, help, typ string) {
	w.b = fmt.Appendf(w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// key opens a /v1/stats member.
func (w *scrape) key(k string) {
	if c := w.b[len(w.b)-1]; c != '{' {
		w.b = append(w.b, ',')
	}
	w.b = fmt.Appendf(w.b, "%q:", k)
}

// series writes one unlabelled value.
func (w *scrape) series(name, help, typ, key string, v any) {
	if w.prom && name != "" {
		w.family(name, help, typ)
		w.b = fmt.Appendf(w.b, "%s %v\n", name, v)
	} else if !w.prom && key != "" {
		w.key(key)
		// Only a NaN or infinite float fails to marshal; the member is
		// then empty, and writeJSON sends the invalid body as nothing.
		j, _ := json.Marshal(v)
		w.b = append(w.b, j...)
	}
}

func (w *scrape) counter(name, help, key string, v uint64) { w.series(name, help, "counter", key, v) }
func (w *scrape) gauge(name, help, key string, v any)      { w.series(name, help, "gauge", key, v) }

// value writes a /v1/stats-only member.
func (w *scrape) value(key string, v any) { w.series("", "", "", key, v) }

// open and close bracket a /v1/stats object; /metrics is flat.
func (w *scrape) open(key string) {
	if !w.prom {
		w.key(key)
		w.b = append(w.b, '{')
	}
}

func (w *scrape) close() {
	if !w.prom {
		w.b = append(w.b, '}')
	}
}

// labelled is one sample of a single-label family.
type labelled struct {
	label string
	n     uint64
}

// labelledFamily writes a family with one label: on /metrics a sample
// per entry, on /v1/stats an object of label: n, where omitZero drops
// the zero entries. A family with nothing to show is left out.
func (w *scrape) labelledFamily(name, help, typ, key, label string, omitZero bool, samples []labelled) {
	if w.prom && name != "" && len(samples) > 0 {
		w.family(name, help, typ)
		for _, s := range samples {
			w.b = fmt.Appendf(w.b, "%s{%s=%q} %d\n", name, label, s.label, s.n)
		}
		return
	}
	if w.prom || key == "" {
		return
	}
	obj := make(map[string]uint64, len(samples))
	for _, s := range samples {
		if s.n > 0 || !omitZero {
			obj[s.label] = s.n
		}
	}
	if len(obj) > 0 {
		w.value(key, obj)
	}
}

// histogram writes h (in nanoseconds) as a /metrics histogram in
// seconds and as a /v1/stats summary in nanoseconds.
func (w *scrape) histogram(name, help, key string, h stats.Histogram) {
	if w.prom {
		w.family(name, help, "histogram")
		var cum uint64
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			w.b = fmt.Appendf(w.b, "%s_bucket{le=\"%g\"} %d\n", name, float64(bound)/1e9, cum)
		}
		w.b = fmt.Appendf(w.b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			name, h.Count, name, float64(h.Sum)/1e9, name, h.Count)
		return
	}
	var p50, p90, p99, mean float64
	if h.Count > 0 {
		p50, p90, p99 = h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
		mean = float64(h.Sum) / float64(h.Count)
	}
	w.open(key)
	w.value("count", h.Count)
	w.value("p50_ns", p50)
	w.value("p90_ns", p90)
	w.value("p99_ns", p99)
	w.value("mean_ns", mean)
	w.close()
}

// serveScrape renders walk as /metrics (prom) or as /v1/stats.
func serveScrape(rw http.ResponseWriter, prom bool, walk func(*scrape)) {
	w := &scrape{prom: prom}
	if !prom {
		w.b = append(w.b, '{')
	}
	walk(w)
	if prom {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rw.Write(w.b)
		return
	}
	writeJSON(rw, http.StatusOK, json.RawMessage(append(w.b, '}')))
}

// handleMetrics serves the node's scrape as Prometheus text
// (hand-rolled; the repo is stdlib-only).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	serveScrape(w, true, s.scrape)
}

// handleStats serves the node's scrape as JSON.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	serveScrape(w, false, s.scrape)
}

// scrape walks everything a node exports, once. snapshot_ms_cold is the
// wall time of the newest snapshot build (each one classifies every
// record); the key keeps the name bench/ reads.
func (s *Server) scrape(w *scrape) {
	w.value("seed", s.cfg.Seed)
	w.value("uptime_seconds", time.Since(s.startedAt).Seconds())
	w.counter("bounced_records_accepted_total", "Records admitted to the ingest queue.", "accepted", s.accepted.Load())
	w.counter("bounced_records_consumed_total", "Records folded into the analysis store.", "consumed", s.consumed.Load())
	w.counter("bounced_ingest_batches_total", "Accepted POST /v1/records batches.", "batches", s.batches.Load())
	w.counter("bounced_ingest_bad_lines_total", "Rejected NDJSON lines.", "bad_lines", s.badLines.Load())
	w.counter("bounced_records_shed_total", "Records refused with 429 under queue overload.", "records_shed", s.shedRecords.Load())
	w.counter("bounced_shed_batches_total", "Batches refused with 429 under queue overload.", "shed_batches", s.shedBatches.Load())
	w.counter("bounced_records_rejected_total", "Records refused with 4xx (malformed or oversized batches).", "records_rejected", s.rejected.Load())
	w.counter("bounced_records_deduped_total", "Records skipped as batch-ID replays.", "records_deduped", s.deduped.Load())
	w.counter("bounced_dedup_batches_total", "Batches acknowledged from the idempotency window.", "dedup_batches", s.dedupBatches.Load())

	// The total and the per-kind counts come from one read of the
	// counters, so they agree while faults fire.
	var faults []labelled
	var fired uint64
	for k, n := range s.faults.Counts() {
		faults = append(faults, labelled{k, n})
		fired += n
	}
	sort.Slice(faults, func(i, j int) bool { return faults[i].label < faults[j].label })
	w.value("faults_injected", fired)
	w.labelledFamily("bounced_faults_injected_total", "Faults fired by the fault-injection layer.", "counter", "faults_by_kind", "kind", false, faults)

	w.counter("bounced_snapshots_total", "Analysis snapshots built.", "snapshots", s.snapTaken.Load())
	s.snapMu.Lock()
	snapAt, snapMs := s.snapAt, s.snapMs
	s.snapMu.Unlock()
	w.value("snapshot_records", snapAt)
	w.value("snapshot_ms_cold", snapMs)
	w.gauge("bounced_queue_depth", "Records buffered in the ingest queue.", "queue_depth", s.queue.Len())
	w.gauge("bounced_queue_capacity", "Ingest queue capacity.", "queue_capacity", s.queue.Cap())

	var degrees []labelled
	for d := dataset.NonBounced; d <= dataset.HardBounced; d++ {
		degrees = append(degrees, labelled{d.String(), s.degrees[int(d)].Load()})
	}
	w.labelledFamily("bounced_bounce_degree_total", "Records by bounce degree.", "counter", "degrees", "degree", false, degrees)
	var types []labelled
	for _, t := range ndr.AllTypes {
		types = append(types, labelled{t.String(), s.typeHits[t].Load()})
	}
	w.labelledFamily("bounced_bounce_type_total", "Live-classified failed attempts by bounce type.", "counter", "types", "type", true, types)
	w.counter("bounced_ambiguous_records_total", "Live-classified records with only ambiguous failures.", "ambiguous_live", s.ambiguous.Load())

	if s.cfg.PolicyMetrics != nil {
		// One snapshot, in two shapes: three labels on /metrics, a list
		// of stage objects on /v1/stats.
		hits := s.cfg.PolicyMetrics.Snapshot()
		w.value("policy_stages", hits)
		if w.prom {
			w.family("bounced_policy_stage_hits_total", "Delivery-engine policy-chain rejections by stage.", "counter")
			for _, h := range hits {
				w.b = fmt.Appendf(w.b, "bounced_policy_stage_hits_total{stage=%q,phase=%q,type=%q} %d\n", h.Stage, h.Phase, h.Type, h.Hits)
			}
		}
	}

	if j := s.j; j != nil {
		est := j.eng.Stats()
		mode := ""
		if fs, ok := j.eng.(*store.FS); ok {
			mode = fs.Mode().String()
		}
		w.open("durability")
		w.value("fsync_mode", mode)
		w.gauge("bounced_wal_segments", "WAL segments on disk (gauge; pruning shrinks it).", "wal_segments", est.Segments)
		w.gauge("bounced_wal_bytes", "Total WAL bytes on disk.", "wal_bytes", est.WALBytes)
		w.gauge("bounced_wal_next_index", "Record index the next WAL append assigns (log length over all time).", "next_index", est.NextIndex)
		w.counter("bounced_wal_appended_records_total", "Records appended to the WAL by this process.", "appended_records", est.AppendedRecords)
		w.counter("bounced_wal_appended_batches_total", "Batches appended to the WAL by this process.", "appended_batches", est.AppendedBatches)
		w.counter("bounced_wal_pruned_segments_total", "WAL segments removed by checkpoint pruning.", "pruned_segments", est.PrunedSegments)
		// The replication read path: shipped/scanned falling is a standby
		// reading further back than the offset index reaches.
		w.counter("bounced_wal_tail_reads_total", "WAL-tail reads served to replication standbys.", "tail_reads", est.TailReads)
		w.counter("bounced_wal_tail_scanned_bytes_total", "Log bytes WAL-tail reads decoded, wanted or not.", "tail_scanned_bytes", est.TailScannedBytes)
		w.counter("bounced_wal_tail_shipped_bytes_total", "Record payload bytes WAL-tail reads shipped; shipped/scanned is the read path's useful-work ratio.", "tail_shipped_bytes", est.TailShippedBytes)
		w.counter("bounced_checkpoints_total", "Checkpoints written by this process.", "checkpoints", est.Checkpoints)
		w.gauge("bounced_last_checkpoint_records", "Record count the newest checkpoint covers.", "last_checkpoint_records", est.LastCheckpointRecords)
		// Until the first checkpoint the age is -1 on /v1/stats and
		// absent from /metrics.
		age, ageName := -1.0, ""
		if est.LastCheckpointUnix > 0 {
			age, ageName = time.Since(time.Unix(est.LastCheckpointUnix, 0)).Seconds(), "bounced_last_checkpoint_age_seconds"
		}
		w.gauge(ageName, "Seconds since the newest checkpoint was written.", "last_checkpoint_age_seconds", age)
		w.value("recovery", j.recovery)
		w.gauge("bounced_records_replayed_at_start", "WAL-tail records replayed during boot recovery.", "", j.recovery.Replayed)
		w.histogram("bounced_fsync_latency_seconds", "WAL fsync latency.", "fsync_latency", est.Fsync)
		w.close()

		// On a primary the standby registry and the semi-sync ack
		// counters; on a standby the sync loop's view of its lag.
		standby, role, isStandby := s.standby.Load(), "primary", 0
		if standby {
			role, isStandby = "standby", 1
		}
		standbys, maxLag := j.tracker.Snapshot()
		w.open("replication")
		w.value("role", role)
		w.gauge("bounced_standby", "1 when the node is a replication standby, 0 when primary.", "", isStandby)
		w.gauge("bounced_epoch", "Replication fencing epoch; promotion bumps it.", "epoch", s.epoch.Load())
		w.gauge("bounced_repl_next_index", "WAL log end in record indices (replication offset space).", "next_index", s.walIndex.Load())
		if len(standbys) > 0 {
			w.value("standbys", standbys)
		}
		w.gauge("bounced_repl_standbys", "Standbys currently polling this node.", "", len(standbys))
		w.gauge("bounced_repl_max_lag_records", "Records the slowest polling standby is behind the log end.", "max_lag_records", maxLag)
		w.counter("bounced_promotions_total", "Standby-to-primary promotions on this node.", "promotions", j.promotions.Load())
		w.counter("bounced_repl_ack_waits_total", "Ingest acks gated on a semi-sync standby confirmation.", "ack_waits", j.replAckWaits.Load())
		w.counter("bounced_repl_ack_timeouts_total", "Semi-sync ack waits that timed out into a retryable 503.", "ack_timeouts", j.replAckTimeouts.Load())
		w.counter("bounced_repl_applies_total", "Replicated WAL units applied by this standby.", "applies", j.replApplies.Load())
		w.counter("bounced_repl_applied_records_total", "Records applied from replicated WAL units.", "applied_records", j.replAppliedRecords.Load())
		if sl := j.syncLoop.Load(); sl != nil && standby {
			st := sl.Status()
			w.value("sync", st)
			w.gauge("bounced_repl_sync_lag_records", "Records this standby is behind the primary's reported log end.", "", st.LagRecords)
			w.counter("bounced_repl_polls_total", "WAL-tail polls this standby has completed.", "", st.Polls)
			w.counter("bounced_repl_resyncs_total", "Full checkpoint resyncs this standby has performed.", "", st.Resyncs)
		}
		w.close()
	}

	w.histogram("bounced_classify_latency_seconds", "Live per-record classification latency.", "classify_latency", s.classifyLatency())
}
