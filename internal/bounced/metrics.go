package bounced

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/ndr"
	"repro/internal/stats"
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

// summarize is a histogram's /v1/stats form, in nanoseconds.
func summarize(h stats.Histogram) latencyStats {
	st := latencyStats{Count: h.Count}
	if h.Count == 0 {
		return st
	}
	st.P50NS = h.Quantile(0.50)
	st.P90NS = h.Quantile(0.90)
	st.P99NS = h.Quantile(0.99)
	st.MeanNS = float64(h.Sum) / float64(h.Count)
	return st
}

// The /metrics writers: family opens a metric family, whose samples the
// caller writes (one per label set); counter and gauge are families of
// one unlabelled sample; writeHistogram renders h in seconds.
func family(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func gauge(b *strings.Builder, name, help string, v any) {
	family(b, name, help, "gauge")
	fmt.Fprintf(b, "%s %v\n", name, v)
}

func counter(b *strings.Builder, name, help string, v uint64) {
	family(b, name, help, "counter")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

func writeHistogram(b *strings.Builder, name, help string, h stats.Histogram) {
	family(b, name, help, "histogram")
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Buckets[i]
		fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, float64(bound)/1e9, cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(b, "%s_sum %g\n", name, float64(h.Sum)/1e9)
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

// handleMetrics serves the service counters in the Prometheus text
// exposition format (hand-rolled; the repo is stdlib-only).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter(&b, "bounced_records_accepted_total", "Records admitted to the ingest queue.", s.accepted.Load())
	counter(&b, "bounced_records_consumed_total", "Records folded into the analysis store.", s.consumed.Load())
	counter(&b, "bounced_ingest_batches_total", "Accepted POST /v1/records batches.", s.batches.Load())
	counter(&b, "bounced_ingest_bad_lines_total", "Rejected NDJSON lines.", s.badLines.Load())
	counter(&b, "bounced_records_shed_total", "Records refused with 429 under queue overload.", s.shedRecords.Load())
	counter(&b, "bounced_shed_batches_total", "Batches refused with 429 under queue overload.", s.shedBatches.Load())
	counter(&b, "bounced_records_rejected_total", "Records refused with 4xx (malformed or oversized batches).", s.rejected.Load())
	counter(&b, "bounced_records_deduped_total", "Records skipped as batch-ID replays.", s.deduped.Load())
	counter(&b, "bounced_dedup_batches_total", "Batches acknowledged from the idempotency window.", s.dedupBatches.Load())
	if faults := s.faults.Counts(); len(faults) > 0 {
		kinds := make([]string, 0, len(faults))
		for k := range faults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		family(&b, "bounced_faults_injected_total", "Faults fired by the fault-injection layer.", "counter")
		for _, k := range kinds {
			fmt.Fprintf(&b, "bounced_faults_injected_total{kind=%q} %d\n", k, faults[k])
		}
	}
	counter(&b, "bounced_snapshots_total", "Analysis snapshots built.", s.snapTaken.Load())
	gauge(&b, "bounced_queue_depth", "Records buffered in the ingest queue.", s.queue.Len())
	gauge(&b, "bounced_queue_capacity", "Ingest queue capacity.", s.queue.Cap())

	family(&b, "bounced_bounce_degree_total", "Records by bounce degree.", "counter")
	for d := dataset.NonBounced; d <= dataset.HardBounced; d++ {
		fmt.Fprintf(&b, "bounced_bounce_degree_total{degree=%q} %d\n", d.String(), s.degrees[int(d)].Load())
	}

	family(&b, "bounced_bounce_type_total", "Live-classified failed attempts by bounce type.", "counter")
	for _, t := range ndr.AllTypes {
		fmt.Fprintf(&b, "bounced_bounce_type_total{type=%q} %d\n", t.String(), s.typeHits[t].Load())
	}
	counter(&b, "bounced_ambiguous_records_total", "Live-classified records with only ambiguous failures.", s.ambiguous.Load())

	if s.cfg.PolicyMetrics != nil {
		family(&b, "bounced_policy_stage_hits_total", "Delivery-engine policy-chain rejections by stage.", "counter")
		for _, h := range s.cfg.PolicyMetrics.Snapshot() {
			fmt.Fprintf(&b, "bounced_policy_stage_hits_total{stage=%q,phase=%q,type=%q} %d\n",
				h.Stage, h.Phase, h.Type, h.Hits)
		}
	}

	if s.j != nil {
		s.j.writeMetrics(&b)
	}

	writeHistogram(&b, "bounced_classify_latency_seconds", "Live per-record classification latency.", s.classifyLatency())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

// writeMetrics appends the durability and replication blocks of
// /metrics, which only a node with a journal exports.
func (j *journal) writeMetrics(b *strings.Builder) {
	est := j.eng.Stats()
	gauge(b, "bounced_wal_segments", "WAL segments on disk (gauge; pruning shrinks it).", est.Segments)
	gauge(b, "bounced_wal_bytes", "Total WAL bytes on disk.", est.WALBytes)
	gauge(b, "bounced_wal_next_index", "Record index the next WAL append assigns (log length over all time).", est.NextIndex)
	counter(b, "bounced_wal_appended_records_total", "Records appended to the WAL by this process.", est.AppendedRecords)
	counter(b, "bounced_wal_appended_batches_total", "Batches appended to the WAL by this process.", est.AppendedBatches)
	counter(b, "bounced_wal_pruned_segments_total", "WAL segments removed by checkpoint pruning.", est.PrunedSegments)
	counter(b, "bounced_wal_tail_reads_total", "WAL-tail reads served to replication standbys.", est.TailReads)
	counter(b, "bounced_wal_tail_scanned_bytes_total", "Log bytes WAL-tail reads decoded, wanted or not.", est.TailScannedBytes)
	counter(b, "bounced_wal_tail_shipped_bytes_total", "Record payload bytes WAL-tail reads shipped; shipped/scanned is the read path's useful-work ratio.", est.TailShippedBytes)
	counter(b, "bounced_checkpoints_total", "Checkpoints written by this process.", est.Checkpoints)
	gauge(b, "bounced_last_checkpoint_records", "Record count the newest checkpoint covers.", est.LastCheckpointRecords)
	if est.LastCheckpointUnix > 0 {
		gauge(b, "bounced_last_checkpoint_age_seconds", "Seconds since the newest checkpoint was written.",
			fmt.Sprintf("%g", time.Since(time.Unix(est.LastCheckpointUnix, 0)).Seconds()))
	}
	gauge(b, "bounced_records_replayed_at_start", "WAL-tail records replayed during boot recovery.", j.recovery.Replayed)
	writeHistogram(b, "bounced_fsync_latency_seconds", "WAL fsync latency.", est.Fsync)

	role := 0
	if j.s.standby.Load() {
		role = 1
	}
	standbys, maxLag := j.tracker.Snapshot()
	gauge(b, "bounced_standby", "1 when the node is a replication standby, 0 when primary.", role)
	gauge(b, "bounced_epoch", "Replication fencing epoch; promotion bumps it.", j.s.epoch.Load())
	gauge(b, "bounced_repl_next_index", "WAL log end in record indices (replication offset space).", j.s.walIndex.Load())
	gauge(b, "bounced_repl_standbys", "Standbys currently polling this node.", len(standbys))
	gauge(b, "bounced_repl_max_lag_records", "Records the slowest polling standby is behind the log end.", maxLag)
	counter(b, "bounced_promotions_total", "Standby-to-primary promotions on this node.", j.promotions.Load())
	counter(b, "bounced_repl_ack_waits_total", "Ingest acks gated on a semi-sync standby confirmation.", j.replAckWaits.Load())
	counter(b, "bounced_repl_ack_timeouts_total", "Semi-sync ack waits that timed out into a retryable 503.", j.replAckTimeouts.Load())
	counter(b, "bounced_repl_applies_total", "Replicated WAL units applied by this standby.", j.replApplies.Load())
	counter(b, "bounced_repl_applied_records_total", "Records applied from replicated WAL units.", j.replAppliedRecords.Load())
	if sl := j.syncLoop.Load(); sl != nil && j.s.standby.Load() {
		st := sl.Status()
		gauge(b, "bounced_repl_sync_lag_records", "Records this standby is behind the primary's reported log end.", st.LagRecords)
		counter(b, "bounced_repl_polls_total", "WAL-tail polls this standby has completed.", st.Polls)
		counter(b, "bounced_repl_resyncs_total", "Full checkpoint resyncs this standby has performed.", st.Resyncs)
	}
}
