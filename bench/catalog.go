package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and directions (a test holds the two together)
// and adds the bound of each end-to-end metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of bounced would see. Every workload
// measures every one of them, never as 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_records_per_s", "1/s", "higher"},
	{"ack_ms_p50", "ms", "lower"},
	{"report_cold_ms", "ms", "lower"},
	{"report_delta_ms", "ms", "lower"},
	{"sut_cpu_s_per_100k", "s", "lower"},
	{"sut_peak_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of single layers, named <package>.<metric>,
// in the order a record meets the layers. The four unprefixed names at
// the end are end-to-end metrics only one workload has (a memory-only
// node has no checkpoint to time), carried here because every
// end-to-end metric must exist on every workload; they read 0 where
// they do not apply.
var perLayer = []metricDef{
	// Stage harness: in-process, through each package's public API.
	{"dataset.input_bytes_per_record", "B", "lower"},
	{"dataset.gunzip_ns_per_record", "ns", "lower"},
	{"dataset.readahead_gunzip_ns_per_record", "ns", "lower"},
	{"dataset.decode_ns_per_record", "ns", "lower"},
	{"dataset.decode_allocs_per_record", "count", "lower"},
	{"dataset.parallel_decode_ns_per_record", "ns", "lower"},
	{"dataset.pipe_ns_per_record", "ns", "lower"},
	{"dataset.encode_ns_per_record", "ns", "lower"},
	{"store.append_ns_per_record", "ns", "lower"},
	{"store.sync_ms_p50", "ms", "lower"},
	{"store.sync_ms_p95", "ms", "lower"},
	{"store.wal_bytes_per_input_byte", "ratio", "lower"},
	{"analysis.owner_ns_per_record", "ns", "lower"},
	{"analysis.fold_ns_per_record", "ns", "lower"},
	{"analysis.train_ns_per_record", "ns", "lower"},
	{"drain.train_ns_per_line", "ns", "lower"},
	{"drain.templates", "count", "lower"},
	{"bounced.ingestbatch_ns_per_record", "ns", "lower"},
	{"bounced.http_post_ns_per_record", "ns", "lower"},
	{"analysis.snapshot_cold_ms", "ms", "lower"},
	{"analysis.classify_ns_per_record", "ns", "lower"},
	{"drain.match_ns_per_line", "ns", "lower"},
	{"ebrc.predict_ns_per_line", "ns", "lower"},
	{"analysis.detect_ms", "ms", "lower"},
	{"bounce.render_all_ms", "ms", "lower"},
	{"bounce.render_advice_ms", "ms", "lower"},
	{"bounce.render_fig7_ms", "ms", "lower"},
	{"analysis.snapshot_delta_ms", "ms", "lower"},
	{"analysis.snapshot_known_ms", "ms", "lower"},
	{"bounce.render_dashboard_ms", "ms", "lower"},
	{"analysis.state_capture_ms", "ms", "lower"},
	{"analysis.state_marshal_ms", "ms", "lower"},
	{"analysis.state_bytes_per_input_byte", "ratio", "lower"},
	{"store.checkpoint_write_ms", "ms", "lower"},
	{"bounced.checkpoint_now_ms", "ms", "lower"},
	{"analysis.state_restore_ms", "ms", "lower"},
	{"store.tail_ns_per_record", "ns", "lower"},
	{"store.recover_open_ms", "ms", "lower"},
	{"bounced.recover_ms", "ms", "lower"},
	{"store.readtail_end_ms", "ms", "lower"},
	{"replication.frame_encode_ns_per_record", "ns", "lower"},
	{"replication.frame_decode_ns_per_record", "ns", "lower"},
	{"bounced.apply_ns_per_record", "ns", "lower"},
	{"analysis.partial_build_ms", "ms", "lower"},
	{"analysis.partial_marshal_ms", "ms", "lower"},
	{"analysis.partial_unmarshal_ms", "ms", "lower"},
	{"analysis.partial_merge_ms", "ms", "lower"},
	{"analysis.partial_bytes_per_input_byte", "ratio", "lower"},
	{"bounce.render_partial_ms", "ms", "lower"},
	{"analysis.heap_bytes_per_record", "B", "lower"},
	{"stage.serial_ns_per_record_mem", "ns", "lower"},
	{"stage.serial_ns_per_record_durable", "ns", "lower"},
	// Scraped from the running processes after the workload.
	{"bounced.shed_batches", "count", "lower"},
	{"bounced.classify_ns_p50", "ns", "lower"},
	{"bounced.classify_ns_p99", "ns", "lower"},
	{"bounced.snapshot_ms_cold", "ms", "lower"},
	{"bounced.snapshot_ms_warm", "ms", "lower"},
	{"bounced.warm_hit_ratio", "ratio", "higher"},
	{"bounced.report_live_ms_p90", "ms", "lower"},
	{"bounced.report_live_count", "count", "higher"},
	{"bounced.ack_ms_p95", "ms", "lower"},
	{"bounced.ack_ms_p99", "ms", "lower"},
	{"store.fsync_count", "count", "lower"},
	{"store.fsync_ms_p50", "ms", "lower"},
	{"store.fsync_ms_p99", "ms", "lower"},
	{"store.records_per_fsync", "count", "higher"},
	{"store.wal_bytes", "B", "lower"},
	{"replication.ack_waits", "count", "lower"},
	{"replication.ack_timeouts", "count", "lower"},
	{"replication.max_lag_records", "count", "lower"},
	{"coordinator.merge_ms", "ms", "lower"},
	{"coordinator.partial_bytes_total", "B", "lower"},
	{"coordinator.reprobes", "count", "lower"},
	{"proc.cpu_s.single", "s", "lower"},
	{"proc.cpu_s.primary", "s", "lower"},
	{"proc.cpu_s.standby", "s", "lower"},
	{"proc.cpu_s.router", "s", "lower"},
	{"proc.cpu_s.coordinator", "s", "lower"},
	{"proc.rss_peak_mb.single", "MiB", "lower"},
	{"proc.rss_peak_mb.primary", "MiB", "lower"},
	{"proc.rss_peak_mb.standby", "MiB", "lower"},
	{"proc.rss_peak_mb.router", "MiB", "lower"},
	{"proc.rss_peak_mb.coordinator", "MiB", "lower"},
	{"client.http_write_ms_p50", "ms", "lower"},
	{"client.http_wait_ms_p50", "ms", "lower"},
	{"loadgen.cpu_s", "s", "lower"},
	{"loadgen.sched_lag_ms_p99", "ms", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "higher"},
	{"loadgen.build_s", "s", "lower"},
	// End-to-end on one workload only.
	{"report_live_ms_p50", "ms", "lower"},
	{"checkpoint_s", "s", "lower"},
	{"recover_s", "s", "lower"},
	{"disk_bytes_per_input_byte", "ratio", "lower"},
}

// workloadDef is one traffic mix and the reason it exists.
type workloadDef struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"single-stream", "memory-only node, streamed identity bodies: decode, queue, fold and Drain training do the work and the WAL none, so a decoder or Pipe gain shows here and a store change must not", (*run).singleStream},
	{"durable-batch", "durable node, gzip X-Batch-Id bodies, checkpoint, SIGKILL and restart: inflate, WAL append, fsync, checkpoint and recovery dominate, so an ingest gain that costs the durable path shows here", (*run).durableBatch},
	{"report-mixed", "open-loop writer beside a closed-loop report reader on one node: snapshot, classify, detect and render do the work and decode little, so a snapshot or render gain shows only here", (*run).reportMixed},
	{"cluster-2x2", "two semi-sync replicated shards behind routers and a coordinator: forward, WAL-tail shipping, standby apply, ack wait and partial merge exist only here", (*run).cluster2x2},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func defsByName(defs []metricDef) map[string]metricDef {
	out := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		out[d.name] = d
	}
	return out
}
