package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sizing shared by the workloads, all in records.
const (
	streamBody   = 500  // single-stream: identity NDJSON, no X-Batch-Id
	batchBody    = 256  // durable-batch and cluster-2x2: gzip, X-Batch-Id
	mixedBody    = 50   // report-mixed writer: identity, X-Batch-Id
	mixedRate    = 5000 // report-mixed writer: records per second, open loop
	deltaRecords = 1000 // unseen records posted before each delta report
	deltas       = 3    // delta reports per run (median reported)
	coldReps     = 3    // the first reps that, like the last, take a cold report
	minMain      = 2000 // records a timed ingest window must at least hold
)

const (
	allSections       = "/v1/report?section=all"
	dashboardSections = "/v1/report?section=overview,table1,table2,fig5,fig8"
)

// run is one invocation of one workload: the corpus, the children, the
// load generator and everything measured so far.
type run struct {
	ctx    context.Context
	bin    string        // bounced, built from the working tree
	dir    string        // scratch directory, removed when the run ends
	c      *corpus       // inputs
	budget time.Duration // --seconds: how long the timed reps go on
	tr     *tracer       // nil unless this is the traced run
	lg     *loadgen
	ps     *procSet

	setupFixed float64            // s: corpus + reference + body encoding (+ preload)
	boot       sample             // s per rep: exec → topology ready
	rate       sample             // records/s per untraced rep
	rateTraced sample             // records/s per traced rep
	acks       sample             // ms, pooled over reps
	cpuS       float64            // SUT CPU inside timed windows
	cpuRecords int                // records acked inside timed windows
	lgCPU      float64            // load generator CPU inside timed windows
	windowS    float64            // wall time of timed windows
	peakRSS    float64            // MiB, last rep: sum of VmHWM over SUT processes
	cold       sample             // ms
	delta      sample             // ms
	roleCPU    map[string]float64 // last rep, whole process life
	roleRSS    map[string]float64

	m map[string]float64 // per-layer metrics measured so far, by name
}

// mainEnd is where the timed ingest stops: everything but the records
// kept back for the delta reports.
func (r *run) mainEnd() (int, error) {
	end := r.c.all.n() - deltas*deltaRecords
	if end < minMain {
		return 0, fmt.Errorf("corpus of %d records is too small: raise -records", r.c.all.n())
	}
	return end, nil
}

// reps calls rep on a fresh topology until the time budget is used, so
// every rep measures the same thing and the run reports their median.
// rep calls isLast after its timed part to learn whether to go on to
// the report phase; before that, the first coldReps reps take one cold
// report each, so report_cold_ms is a median too. In a traced run reps
// alternate untraced and traced (at least one of each):
// loadgen.trace_overhead_ratio compares them.
func (r *run) reps(rep func(i int, isLast func() bool) error) error {
	began := time.Now()
	for i := 0; ; i++ {
		r.lg.tr = nil
		if i%2 == 1 {
			r.lg.tr = r.tr
		}
		r.roleCPU = map[string]float64{}
		last := false
		isLast := func() bool {
			last = time.Since(began) >= r.budget && (r.tr == nil || i > 0)
			return last
		}
		if err := rep(i, isLast); err != nil {
			return err
		}
		if last {
			return nil
		}
	}
}

// window is one timed ingest interval with the CPU meters read at its
// start.
type window struct {
	t0     time.Time
	sutCPU float64
	lgCPU  float64
}

func (r *run) sutCPU() float64 {
	total := 0.0
	for _, c := range r.ps.live() {
		if v, err := procCPU(c.pid()); err == nil {
			total += v
		}
	}
	return total
}

func (r *run) openWindow() window {
	return window{t0: time.Now(), sutCPU: r.sutCPU(), lgCPU: selfCPU()}
}

// closeWindow ends a timed window in which records were acked and
// consumed, and books its rate, CPU and ack latencies.
func (r *run) closeWindow(w window, records int, acks sample) {
	wall := time.Since(w.t0).Seconds()
	rate := float64(records) / wall
	if r.lg.tr != nil {
		r.rateTraced = append(r.rateTraced, rate)
	} else {
		r.rate = append(r.rate, rate)
	}
	r.windowS += wall
	r.cpuS += r.sutCPU() - w.sutCPU
	r.lgCPU += selfCPU() - w.lgCPU
	r.cpuRecords += records
	r.acks = append(r.acks, acks...)
}

// retire reads the children's whole-life CPU and peak memory, then
// kills them all: the end of a rep. earlier is the peak memory of
// children that were killed before (the durable node before its
// restart); a role's peak is the larger of the two, since those
// processes never ran side by side.
func (r *run) retire(earlier map[string]float64) {
	r.roleRSS = r.sampleProcs()
	for role, v := range earlier {
		r.roleRSS[role] = max(r.roleRSS[role], v)
	}
	r.peakRSS = 0
	for _, v := range r.roleRSS {
		r.peakRSS += v
	}
	r.ps.killAll()
}

// sampleProcs adds the live children's CPU so far to roleCPU and
// returns their peak memory (VmHWM) summed by role.
func (r *run) sampleProcs() map[string]float64 {
	rss := map[string]float64{}
	for _, c := range r.ps.live() {
		if v, err := procCPU(c.pid()); err == nil {
			r.roleCPU[c.role] += v
		}
		if v, err := procPeakRSS(c.pid()); err == nil {
			rss[c.role] += v
		}
	}
	return rss
}

// reportPhase measures the reports a user asks for once ingest has
// stopped — the first one cold, then one after each batch of unseen
// records — and holds the last against the reference byte for byte.
// Delta k is tail[k], one body queue per URL in ingestAt; consumedAt are
// the nodes whose record counts must add up afterwards, starting from
// want.
func (r *run) reportPhase(base, path string, ref []byte, want int, ingestAt []string, tail [][][]body, consumedAt ...string) error {
	if err := r.coldReport(base, path); err != nil {
		return err
	}
	cn := newConn()
	defer cn.CloseIdleConnections()
	var (
		got []byte
		d   time.Duration
		err error
	)
	for k := range tail {
		if _, err := r.lg.closedLoop(r.ctx, ingestAt, tail[k]); err != nil {
			return err
		}
		want += deltaRecords
		if err := waitConsumed(r.ctx, uint64(want), consumedAt...); err != nil {
			return err
		}
		if got, d, err = r.lg.request(r.ctx, cn, "op.report", http.MethodGet, base, path); err != nil {
			return err
		}
		r.delta = append(r.delta, ms(d))
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("report over %d acked records differs from the batch reference (%d vs %d bytes): %s",
			want, len(got), len(ref), firstDiff(got, ref))
	}
	return nil
}

// coldReport times the first report a node serves after an ingest
// window: nothing cached, training possibly still catching up.
func (r *run) coldReport(base, path string) error {
	cn := newConn()
	defer cn.CloseIdleConnections()
	_, d, err := r.lg.request(r.ctx, cn, "op.report", http.MethodGet, base, path)
	if err != nil {
		return err
	}
	r.cold = append(r.cold, ms(d))
	return nil
}

// firstDiff names the first line on which two reports disagree.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: served %q, reference %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("served %d lines, reference %d", len(g), len(w))
}

// ownerQueues cuts records [lo,hi) into one body queue per connection,
// connection k carrying the records analysis.OwnerOf assigns to k of n.
// A node folds concurrent requests in whatever order they land, and its
// report is invariant only under interleavings that keep each
// classification substream in order; owner-partitioned connections are
// such an interleaving, so the report stays byte-comparable to the
// in-order reference with more than one connection.
func (r *run) ownerQueues(lo, hi, n, per int, gz bool, idPrefix string) ([][]body, error) {
	parts := r.c.partition(lo, hi, n)
	queues := make([][]body, n)
	for k := range parts {
		prefix := idPrefix
		if prefix != "" {
			prefix = fmt.Sprintf("%s%d", idPrefix, k)
		}
		var err error
		if queues[k], err = makeBodies(&parts[k], 0, parts[k].n(), per, gz, prefix); err != nil {
			return nil, err
		}
	}
	return queues, nil
}

// deltaTail cuts the records kept back after end into the delta bodies
// of a single node: tail[k] is one queue holding one body.
func (r *run) deltaTail(end int, gz bool, idPrefix string) ([][][]body, error) {
	bs, err := makeBodies(&r.c.all, end, r.c.all.n(), deltaRecords, gz, idPrefix)
	tail := make([][][]body, len(bs))
	for k := range bs {
		tail[k] = [][]body{{bs[k]}}
	}
	return tail, err
}

// timeSetup runs fn and books its wall time as set-up.
func (r *run) timeSetup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.setupFixed += time.Since(t0).Seconds()
	return err
}

// singleStream: memory-only node, streamed path, two connections.
func (r *run) singleStream() error {
	end, err := r.mainEnd()
	if err != nil {
		return err
	}
	var queues [][]body
	var tail [][][]body
	var ref []byte
	err = r.timeSetup(func() (err error) {
		if queues, err = r.ownerQueues(0, end, 2, streamBody, false, ""); err != nil {
			return err
		}
		if tail, err = r.deltaTail(end, false, ""); err != nil {
			return err
		}
		ref, err = r.c.reference(false)
		return err
	})
	if err != nil {
		return err
	}
	return r.reps(func(i int, isLast func() bool) error {
		defer r.ps.killAll()
		t0 := time.Now()
		node, err := startSingle(r.ctx, r.ps, "")
		if err != nil {
			return err
		}
		r.boot = append(r.boot, time.Since(t0).Seconds())
		w := r.openWindow()
		acks, err := r.lg.closedLoop(r.ctx, []string{node.url, node.url}, queues)
		if err != nil {
			return err
		}
		if err := waitConsumed(r.ctx, uint64(end), node.url); err != nil {
			return err
		}
		r.closeWindow(w, end, acks)
		if isLast() {
			if err := r.reportPhase(node.url, allSections, ref, end, []string{node.url}, tail, node.url); err != nil {
				return err
			}
			if err := r.scrapeNodes(node.url); err != nil {
				return err
			}
		} else if i < coldReps {
			if err := r.coldReport(node.url, allSections); err != nil {
				return err
			}
		}
		r.retire(nil)
		return nil
	})
}

// durableBatch: durable node, idempotent gzip batches, checkpoint,
// SIGKILL, restart on the same directory.
func (r *run) durableBatch() error {
	end, err := r.mainEnd()
	if err != nil {
		return err
	}
	cut := end * 9 / 10
	var head [][]body
	var rest []body
	var tail [][][]body
	var ref []byte
	err = r.timeSetup(func() (err error) {
		if head, err = r.ownerQueues(0, cut, 2, batchBody, true, fmt.Sprintf("d%d-c", r.c.seed)); err != nil {
			return err
		}
		if rest, err = makeBodies(&r.c.all, cut, end, batchBody, true, fmt.Sprintf("d%d-rest", r.c.seed)); err != nil {
			return err
		}
		if tail, err = r.deltaTail(end, true, fmt.Sprintf("d%d-delta", r.c.seed)); err != nil {
			return err
		}
		ref, err = r.c.reference(false)
		return err
	})
	if err != nil {
		return err
	}
	var checkpoint, recover sample
	err = r.reps(func(i int, isLast func() bool) error {
		defer r.ps.killAll()
		dir := filepath.Join(r.dir, fmt.Sprintf("durable-%d", i))
		defer os.RemoveAll(dir)
		t0 := time.Now()
		node, err := startSingle(r.ctx, r.ps, dir)
		if err != nil {
			return err
		}
		r.boot = append(r.boot, time.Since(t0).Seconds())

		w := r.openWindow()
		acks, err := r.lg.closedLoop(r.ctx, []string{node.url, node.url}, head)
		if err != nil {
			return err
		}
		if err := waitConsumed(r.ctx, uint64(cut), node.url); err != nil {
			return err
		}
		r.closeWindow(w, cut, acks)

		cn := newConn()
		defer cn.CloseIdleConnections()
		_, d, err := r.lg.request(r.ctx, cn, "op.checkpoint", http.MethodPost, node.url, "/v1/checkpoint")
		if err != nil {
			return err
		}
		checkpoint = append(checkpoint, d.Seconds())

		acks, err = r.lg.closedLoop(r.ctx, []string{node.url}, [][]body{rest})
		if err != nil {
			return err
		}
		r.acks = append(r.acks, acks...)
		if err := waitConsumed(r.ctx, uint64(end), node.url); err != nil {
			return err
		}
		last := isLast()
		if last {
			if err := r.scrapeNodes(node.url); err != nil { // fsync counters die with the process
				return err
			}
		}
		beforeKill := r.sampleProcs()
		node.kill()

		// One restart is one operation; it has failed unless every record
		// acked before the kill is consumed again.
		r.lg.attempted.Add(1)
		root := r.lg.tr.root("op.recover", dir)
		t0 = time.Now()
		node, err = startSingle(r.ctx, r.ps, dir)
		if err == nil {
			err = waitConsumed(r.ctx, uint64(end), node.url)
		}
		root.end()
		if err != nil {
			r.lg.failed.Add(1)
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recover = append(recover, time.Since(t0).Seconds())

		if !last && i < coldReps {
			if err := r.coldReport(node.url, allSections); err != nil {
				return err
			}
		}
		if last {
			rep, _, err := r.lg.post(r.ctx, cn, node.url, &rest[len(rest)-1])
			if err != nil {
				return err
			}
			if !rep.Deduped {
				return fmt.Errorf("re-posting acked batch %s after the restart was not deduplicated", rest[len(rest)-1].id)
			}
			if err := r.reportPhase(node.url, allSections, ref, end, []string{node.url}, tail, node.url); err != nil {
				return err
			}
			disk, err := dirBytes(dir)
			if err != nil {
				return err
			}
			r.m["disk_bytes_per_input_byte"] = float64(disk) / float64(len(r.c.all.buf))
		}
		r.retire(beforeKill)
		return nil
	})
	r.m["checkpoint_s"] = checkpoint.median()
	r.m["recover_s"] = recover.median()
	return err
}

// reportMixed: one open-loop writer beside one closed-loop reader on a
// preloaded memory-only node, for the whole time budget.
func (r *run) reportMixed() error {
	end, err := r.mainEnd()
	if err != nil {
		return err
	}
	written := int(r.budget.Seconds() * mixedRate)
	preload := end - written
	if preload < minMain {
		return fmt.Errorf("corpus of %d records cannot feed %d records/s for %s after a preload: raise -records or lower -seconds",
			r.c.all.n(), mixedRate, r.budget)
	}
	var queues [][]body
	var stream []body
	var tail [][][]body
	var ref []byte
	err = r.timeSetup(func() (err error) {
		if queues, err = r.ownerQueues(0, preload, 2, streamBody, false, ""); err != nil {
			return err
		}
		if stream, err = makeBodies(&r.c.all, preload, end, mixedBody, false, fmt.Sprintf("m%d", r.c.seed)); err != nil {
			return err
		}
		if tail, err = r.deltaTail(end, false, ""); err != nil {
			return err
		}
		ref, err = r.c.reference(false)
		return err
	})
	if err != nil {
		return err
	}
	defer r.ps.killAll()
	r.lg.tr = r.tr
	r.roleCPU = map[string]float64{}
	t0 := time.Now()
	node, err := startSingle(r.ctx, r.ps, "")
	if err != nil {
		return err
	}
	r.boot = append(r.boot, time.Since(t0).Seconds())
	writer, reader := newConn(), newConn()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	err = r.timeSetup(func() error {
		if _, err := r.lg.closedLoop(r.ctx, []string{node.url, node.url}, queues); err != nil {
			return err
		}
		if err := waitConsumed(r.ctx, uint64(preload), node.url); err != nil {
			return err
		}
		_, _, err := r.lg.request(r.ctx, reader, "op.snapshot", http.MethodPost, node.url, "/v1/snapshot")
		return err
	})
	if err != nil {
		return err
	}

	var (
		wg      sync.WaitGroup
		live    sample
		readErr error
		stop    = make(chan struct{})
	)
	w := r.openWindow()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, d, err := r.lg.request(r.ctx, reader, "op.report", http.MethodGet, node.url, dashboardSections)
			if err != nil {
				readErr = err
				return
			}
			live = append(live, ms(d))
		}
	}()
	sched := schedule{start: time.Now(), every: time.Second * mixedBody / mixedRate}
	acks, late, err := r.lg.openLoop(r.ctx, writer, node.url, stream, sched)
	close(stop)
	if err == nil {
		err = waitConsumed(r.ctx, uint64(end), node.url)
	}
	r.closeWindow(w, written, acks)
	wg.Wait() // the reader's request in flight is allowed to finish
	if err == nil {
		err = readErr
	}
	if err != nil {
		return err
	}
	r.m["report_live_ms_p50"] = live.median()
	r.m["bounced.report_live_ms_p90"] = live.pct(90)
	r.m["bounced.report_live_count"] = float64(len(live))
	r.m["loadgen.sched_lag_ms_p99"] = late.pct(99)

	if err := r.reportPhase(node.url, allSections, ref, end, []string{node.url}, tail, node.url); err != nil {
		return err
	}
	if err := r.scrapeNodes(node.url); err != nil {
		return err
	}
	r.retire(nil)
	return nil
}

// cluster2x2: two replicated shards behind routers, one connection per
// router, reports through the coordinator.
func (r *run) cluster2x2() error {
	end, err := r.mainEnd()
	if err != nil {
		return err
	}
	var queues [][]body
	var tail [][][]body // tail[k] is delta k as one queue per shard
	var ref []byte
	err = r.timeSetup(func() (err error) {
		if queues, err = r.ownerQueues(0, end, clusterShards, batchBody, true, fmt.Sprintf("c%d-s", r.c.seed)); err != nil {
			return err
		}
		for k := 0; k < deltas; k++ {
			lo := end + k*deltaRecords
			q, err := r.ownerQueues(lo, lo+deltaRecords, clusterShards, deltaRecords, true, fmt.Sprintf("c%d-delta%d-s", r.c.seed, k))
			if err != nil {
				return err
			}
			tail = append(tail, q)
		}
		ref, err = r.c.reference(true)
		return err
	})
	if err != nil {
		return err
	}
	return r.reps(func(i int, isLast func() bool) error {
		defer r.ps.killAll()
		dir := filepath.Join(r.dir, fmt.Sprintf("cluster-%d", i))
		defer os.RemoveAll(dir)
		t0 := time.Now()
		cl, err := startCluster(r.ctx, r.ps, dir)
		if err != nil {
			return err
		}
		r.boot = append(r.boot, time.Since(t0).Seconds())
		routers, primaries := cl.routerURLs(), cl.primaryURLs()

		w := r.openWindow()
		acks, err := r.lg.closedLoop(r.ctx, routers, queues)
		if err != nil {
			return err
		}
		if err := waitConsumed(r.ctx, uint64(end), primaries...); err != nil {
			return err
		}
		r.closeWindow(w, end, acks)
		if err := r.standbysCaughtUp(cl); err != nil {
			return err
		}
		if isLast() {
			if err := r.reportPhase(cl.coordinator.url, "/v1/report", ref, end, routers, tail, primaries...); err != nil {
				return err
			}
			if err := r.standbysCaughtUp(cl); err != nil {
				return err
			}
			if err := r.scrapeNodes(primaries...); err != nil {
				return err
			}
			if err := r.scrapeCoordinator(cl.coordinator.url); err != nil {
				return err
			}
		} else if i < coldReps {
			if err := r.coldReport(cl.coordinator.url, "/v1/report"); err != nil {
				return err
			}
		}
		r.retire(nil)
		return nil
	})
}

// standbysCaughtUp checks the replication half of the correctness gate:
// every standby has applied exactly what its primary has logged. With
// semi-sync acks this holds the moment the last ack returns.
func (r *run) standbysCaughtUp(cl *cluster) error {
	for i, sh := range cl.shards {
		p, err := fetchStats(r.ctx, sh.primary.url)
		if err != nil {
			return err
		}
		s, err := fetchStats(r.ctx, sh.standby.url)
		if err != nil {
			return err
		}
		if p.Replication == nil || s.Replication == nil {
			return fmt.Errorf("shard %d: replication stats missing", i)
		}
		if s.Replication.AppliedRecords != p.Replication.NextIndex {
			return fmt.Errorf("shard %d: standby applied %d records, primary logged %d",
				i, s.Replication.AppliedRecords, p.Replication.NextIndex)
		}
	}
	return nil
}

// scrapeNodes reads the per-layer counters the record-holding nodes at
// bases keep about themselves: sums for counts, the worst node for
// latencies.
func (r *run) scrapeNodes(bases ...string) error {
	var warm, snaps, fsyncs, appended uint64
	for _, b := range bases {
		st, err := fetchStats(r.ctx, b)
		if err != nil {
			return err
		}
		r.m["bounced.shed_batches"] += float64(st.ShedBatches)
		r.m["bounced.classify_ns_p50"] = max(r.m["bounced.classify_ns_p50"], st.Classify.P50NS)
		r.m["bounced.classify_ns_p99"] = max(r.m["bounced.classify_ns_p99"], st.Classify.P99NS)
		r.m["bounced.snapshot_ms_cold"] = max(r.m["bounced.snapshot_ms_cold"], st.SnapshotMsCold)
		r.m["bounced.snapshot_ms_warm"] = max(r.m["bounced.snapshot_ms_warm"], st.SnapshotMsWarm)
		warm += st.SnapshotsWarm
		snaps += st.SnapshotsWarm + st.SnapshotsCold
		if d := st.Durability; d != nil {
			fsyncs += d.Fsync.Count
			appended += d.AppendedRecords
			r.m["store.fsync_ms_p50"] = max(r.m["store.fsync_ms_p50"], d.Fsync.P50NS/1e6)
			r.m["store.fsync_ms_p99"] = max(r.m["store.fsync_ms_p99"], d.Fsync.P99NS/1e6)
			r.m["store.wal_bytes"] += float64(d.WALBytes)
		}
		if rp := st.Replication; rp != nil {
			r.m["replication.ack_waits"] += float64(rp.AckWaits)
			r.m["replication.ack_timeouts"] += float64(rp.AckTimeouts)
			r.m["replication.max_lag_records"] = max(r.m["replication.max_lag_records"], float64(rp.MaxLagRecords))
		}
	}
	if snaps > 0 {
		r.m["bounced.warm_hit_ratio"] = float64(warm) / float64(snaps)
	}
	r.m["store.fsync_count"] = float64(fsyncs)
	if fsyncs > 0 {
		r.m["store.records_per_fsync"] = float64(appended) / float64(fsyncs)
	}
	return nil
}

// scrapeCoordinator reads the merge cost of the last fan-in from
// /metrics (which does not fan in again) and the partial sizes from
// /v1/stats (which does; the shards serve their cached partials).
func (r *run) scrapeCoordinator(base string) error {
	text, err := scrape(r.ctx, base+"/metrics")
	if err != nil {
		return err
	}
	r.m["coordinator.merge_ms"] = promValue(text, "coordinator_merge_ms")
	r.m["coordinator.reprobes"] = promValue(text, "coordinator_reprobes_total")
	var st struct {
		Shards []struct {
			Bytes int `json:"snapshot_bytes"`
		} `json:"shards"`
	}
	if err := scrapeJSON(r.ctx, base+"/v1/stats", &st); err != nil {
		return err
	}
	for _, sh := range st.Shards {
		r.m["coordinator.partial_bytes_total"] += float64(sh.Bytes)
	}
	return nil
}

// promValue returns the value of the unlabelled sample name in a
// Prometheus text exposition, 0 when absent.
func promValue(text []byte, name string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// dirBytes is the exact byte count of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
