// Command bounced runs the bounce-analytics service: a long-running
// HTTP server that ingests Figure-3 delivery records online and serves
// the paper's tables and figures live, over exactly the records
// ingested so far. GET /v1/report is byte-identical to a bounceanalyze
// batch run over the same records.
//
// Usage:
//
//	bounced                                # serve, ingest via POST /v1/records
//	bounced -generate -emails 400000       # feed an in-process delivery run
//	bounced -replay dataset.jsonl.gz       # preload a bouncegen file, then serve
//	bounced loadgen -in dataset.jsonl -url http://localhost:8425   # idempotent replay client
//	bounced -fault-spec 'seed=7,torn=0.05' -read-timeout 5s   # hostile-stream drills
//	bounced loadgen -in dataset.jsonl -chaos 'seed=3,torn=0.3,dup=0.5'   # ... with a hostile client
//	bounced -data-dir /var/lib/bounced -fsync batch           # durable: WAL + checkpoints, kill -9 safe
//
// Cluster mode (DESIGN.md §10) splits one logical service across shard
// nodes plus a stateless coordinator; the coordinator's merged report
// is byte-identical to a single node ingesting the full stream:
//
//	bounced -role=shard -shard-index=0 -shard-count=3 -addr :8425
//	bounced -role=shard -shard-index=1 -shard-count=3 -addr :8426
//	bounced -role=shard -shard-index=2 -shard-count=3 -addr :8427
//	bounced -role=coordinator -shards http://h0:8425,http://h1:8426,http://h2:8427
//
// Replication (DESIGN.md §12) pairs a durable primary with standbys
// that stream its checkpoint plus WAL tail and stay hot; on primary
// death a standby promotes (POST /v1/promote, or automatically after
// -failover-timeout) and serves the identical report with zero
// acked-record loss. A router gives clients one stable address across
// the failover:
//
//	bounced -data-dir /var/a -repl-ack 1 -addr :8425
//	bounced -role=standby -primary http://h0:8425 -data-dir /var/b -failover-timeout 5s -addr :8426
//	bounced -role=router -peers http://h0:8425,http://h1:8426 -addr :8427
//
// Replicated shards (DESIGN.md §14) compose the two: each shard is a
// replica set — a shard-role primary with standbys carrying the same
// -shard-index/-shard-count, fronted by its own router — and the
// coordinator fans in through the router URLs, following each shard's
// elected highest-epoch primary:
//
//	bounced -role=shard -shard-index=0 -shard-count=2 -data-dir /var/s0a -repl-ack 1 -addr :8425
//	bounced -role=standby -shard-index=0 -shard-count=2 -primary http://h0:8425 -data-dir /var/s0b -failover-timeout 5s -addr :8426
//	bounced -role=router -peers http://h0:8425,http://h0:8426 -addr :8427
//	... same trio for shard 1 on :8428-:8430 ...
//	bounced -role=coordinator -shards http://h0:8427,http://h1:8430
//
// A role is a row of flags (the roles table below): the ones it
// requires and the ones it reads. Every role reads -role and -addr; a
// flag set outside the role's row is refused, naming flag and role.
//
//	role         requires           reads
//	single       —                  node flags, -generate, -replay
//	shard        -shard-count       node flags, -shard-index
//	standby      -primary -data-dir node flags, -shard-index, -shard-count, -poll-interval, -failover-timeout
//	coordinator  -shards            -emails -seed -workers -no-env
//	router       -peers             —
//
// The node flags are -emails -seed -workers -no-env -queue
// -flush-sections -pprof -fault-spec -read-timeout -dedup-window
// -data-dir -checkpoint-interval -fsync -repl-ack. A shard reads neither
// -generate nor -replay: feed shards over HTTP, where every record's
// ownership is checked.
//
// Endpoints: POST /v1/records (NDJSON, gzip-aware), GET /v1/report
// ?section=table1,fig8, GET /v1/stats, POST /v1/snapshot, GET and POST
// /v1/partial (a coordinator's two fan-in rounds), GET /v1/repl/status,
// GET /metrics (Prometheus text), GET /healthz; a node with -data-dir
// also mounts POST /v1/checkpoint, GET /v1/repl/wal, GET
// /v1/repl/checkpoint and POST /v1/promote.
//
// SIGINT/SIGTERM shuts down gracefully: HTTP ingestion stops, the
// queue drains completely into the store (no accepted record is
// dropped), and a final report is flushed to stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/delivery"
	"repro/internal/faultinject"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/store"
	"repro/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bounced: ")
	// bounced is an in-memory analytics store: the resident dataset IS
	// the live heap, and Go's default 100% growth target makes the
	// collector rescan every stored record's pointers once per heap
	// doubling — >10% of replay CPU by GODEBUG=gctrace. Trading memory
	// headroom for fewer rescans is the right default for a retention
	// service; an explicit GOGC env var still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		loadgenMain(os.Args[2:])
		return
	}
	serveMain(os.Args[1:])
}

// serveFlags is every flag the server takes; the roles table says which
// role reads which.
type serveFlags struct {
	addr, role, replay, flushSec, faultSpec, dataDir, fsync, primary, shards, peers string
	generate, noEnv, pprof                                                          bool
	emails, workers, queue, dedupWin, replAck, shardIdx, shardCnt                   int
	seed                                                                            uint64
	readTO, cpEvery, pollWait, failTO                                               time.Duration
}

// nodeFlags are the flags every record-holding role reads.
const nodeFlags = "emails seed workers no-env queue flush-sections pprof fault-spec read-timeout dedup-window " +
	"data-dir checkpoint-interval fsync repl-ack"

// roles is the role table: the flags a role requires and the further
// flags it reads. Every role reads -role and -addr; any other flag set
// outside a role's row is refused, so a flag is never silently ignored.
// The shard row reads neither -generate nor -replay: both feed through
// IngestBatch, which checks no ownership, so shards are fed over HTTP.
var roles = map[string]struct{ requires, reads string }{
	"single":      {"", nodeFlags + " generate replay"},
	"shard":       {"shard-count", nodeFlags + " shard-index"},
	"standby":     {"primary data-dir", nodeFlags + " shard-index shard-count poll-interval failover-timeout"},
	"coordinator": {"shards", "emails seed workers no-env"},
	"router":      {"peers", ""},
}

// checkFlags holds the flags set on the command line against the role's
// row.
func checkFlags(role string, set []string) error {
	row, ok := roles[role]
	if !ok {
		return fmt.Errorf("unknown -role %q (want single, shard, coordinator, standby, or router)", role)
	}
	for _, name := range strings.Fields(row.requires) {
		if !slices.Contains(set, name) {
			return fmt.Errorf("-role=%s requires -%s", role, name)
		}
	}
	reads := strings.Fields("role addr " + row.requires + " " + row.reads)
	for _, name := range set {
		if !slices.Contains(reads, name) {
			return fmt.Errorf("-%s is not a -role=%s flag (that role reads: -%s)", name, role, strings.Join(reads, " -"))
		}
	}
	return nil
}

// serveFlagSet declares the server's flags over f.
func serveFlagSet(f *serveFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("bounced", flag.ExitOnError)
	fs.StringVar(&f.addr, "addr", ":8425", "listen address")
	fs.StringVar(&f.role, "role", "single", "node role: single, shard (owns a slice of the 16 substreams), coordinator (merges shard partials), standby (replicates a primary), or router (fronts a replica set)")
	fs.BoolVar(&f.generate, "generate", false, "single role: feed the service from an in-process delivery engine run")
	fs.StringVar(&f.replay, "replay", "", "single role: preload a JSONL(.gz) dataset before serving")
	fs.IntVar(&f.emails, "emails", 400_000, "corpus size (generate mode and env replay)")
	fs.Uint64Var(&f.seed, "seed", 42, "world seed")
	fs.IntVar(&f.workers, "workers", 1, "delivery fan-out width (generate mode and env replay)")
	fs.BoolVar(&f.noEnv, "no-env", false, "skip world regeneration; env-dependent sections degrade")
	fs.IntVar(&f.queue, "queue", 1024, "ingest queue depth (backpressure bound)")
	fs.StringVar(&f.flushSec, "flush-sections", "overview", "report sections flushed to stdout on shutdown ('' to disable, 'all' for everything)")
	fs.BoolVar(&f.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&f.faultSpec, "fault-spec", "", "arm deterministic fault injection, e.g. 'seed=7,torn=0.05,stall=2ms' (DESIGN.md §9)")
	fs.DurationVar(&f.readTO, "read-timeout", 0, "per-request body read deadline; slow-loris cutoff (0 disables)")
	fs.IntVar(&f.dedupWin, "dedup-window", 256, "idempotent X-Batch-Id dedup window, in batches")
	fs.StringVar(&f.dataDir, "data-dir", "", "durability directory (WAL + checkpoints); boot recovers from it, empty = memory-only")
	fs.DurationVar(&f.cpEvery, "checkpoint-interval", 30*time.Second, "background checkpoint cadence with -data-dir (0 disables; shutdown still checkpoints)")
	fs.StringVar(&f.fsync, "fsync", "batch", "WAL fsync mode with -data-dir: batch (per acked batch), always, or off (flush-to-OS only)")
	fs.IntVar(&f.replAck, "repl-ack", 0, "semi-sync: gate each ingest ack on this many standbys having applied the batch, for up to 5s (0 = async)")
	fs.IntVar(&f.shardIdx, "shard-index", 0, "shard/standby role: this node's index in [0, shard-count)")
	fs.IntVar(&f.shardCnt, "shard-count", 0, "shard/standby role: total shards; a record belongs here iff OwnerOf(record, shard-count) == shard-index (standbys carry their shard primary's values so ownership survives promotion)")
	fs.StringVar(&f.primary, "primary", "", "standby role: the primary's base URL to replicate from")
	fs.DurationVar(&f.pollWait, "poll-interval", 2*time.Second, "standby role: WAL long-poll hold time on the primary")
	fs.DurationVar(&f.failTO, "failover-timeout", 0, "standby role: auto-promote after this long without a successful sync (0 = manual /v1/promote only)")
	fs.StringVar(&f.shards, "shards", "", "coordinator role: comma-separated shard base URLs (their order is the merge order)")
	fs.StringVar(&f.peers, "peers", "", "router role: comma-separated replica-set base URLs to probe and forward to")
	return fs
}

func serveMain(args []string) {
	var f serveFlags
	fs := serveFlagSet(&f)
	fs.Parse(args)
	var set []string
	fs.Visit(func(fl *flag.Flag) { set = append(set, fl.Name) })
	if err := checkFlags(f.role, set); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch f.role {
	case "router":
		runRouter(ctx, &f)
	case "coordinator":
		runCoordinator(ctx, &f)
	default:
		runNode(ctx, &f)
	}
}

// runRouter fronts a replica set. Routers hold no records and serve no
// reports of their own, so they skip the world/env restore entirely.
func runRouter(ctx context.Context, f *serveFlags) {
	peers := splitList(f.peers)
	rt, err := replication.NewRouter(replication.RouterConfig{Peers: peers})
	if err != nil {
		log.Fatal(err)
	}
	go rt.Run(ctx)
	serveUntil(ctx, listen(f.addr), rt.Handler(), "router", fmt.Sprintf("over %d peers", len(peers)))
}

// runCoordinator merges shard partials. Coordinators hold no records:
// shutdown is just closing the listener, no drain and no final report.
func runCoordinator(ctx context.Context, f *serveFlags) {
	env, _ := restoreEnv(ctx, f)
	urls := splitList(f.shards)
	coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: urls, Env: env})
	if err != nil {
		log.Fatal(err)
	}
	serveUntil(ctx, listen(f.addr), coord.Handler(), "coordinator", fmt.Sprintf("over %d shards", len(urls)))
}

// worldConfig is the world -seed and -emails describe.
func worldConfig(f *serveFlags) world.Config {
	cfg := world.DefaultConfig()
	cfg.TotalEmails = f.emails
	cfg.Seed = f.seed
	return cfg
}

// restoreEnv is the ingest-mode environment (bounce.ReplayEnvironment
// over -seed and -emails), nil with -no-env.
func restoreEnv(ctx context.Context, f *serveFlags) (*analysis.Environment, *policy.Metrics) {
	if f.noEnv {
		return nil, nil
	}
	log.Printf("restoring environment (seed %d, %d emails); -no-env skips this", f.seed, f.emails)
	e, err := bounce.ReplayEnvironment(ctx, worldConfig(f), f.workers)
	if err != nil {
		log.Fatal(err)
	}
	return bounce.NewEnvironment(e.W), e.Metrics
}

// runNode serves a record-holding role: single, shard or standby.
func runNode(ctx context.Context, f *serveFlags) {
	if f.pprof {
		// CPU and heap endpoints work unconditionally; contention
		// profiling needs explicit sampling turned on. Rates follow the
		// net/http/pprof documentation: every 1000th contended mutex
		// event, and block events with ≥100µs of cumulative wait —
		// cheap enough to leave on for a profiling run, informative
		// enough to rank the walMu/storeMu critical sections.
		runtime.SetMutexProfileFraction(1000)
		runtime.SetBlockProfileRate(100_000)
	}
	// A standby of a shard primary carries the same shard coordinates,
	// so a promotion keeps enforcing ownership.
	if (f.role == "shard" || f.shardCnt != 0 || f.shardIdx != 0) && (f.shardIdx < 0 || f.shardIdx >= f.shardCnt) {
		log.Fatalf("-role=%s needs 0 <= -shard-index < -shard-count (got index %d, count %d)", f.role, f.shardIdx, f.shardCnt)
	}
	sCfg := bounced.Config{
		QueueDepth: f.queue, Seed: f.seed, EnablePprof: f.pprof,
		ReadTimeout: f.readTO, DedupWindow: f.dedupWin,
		ShardCount: f.shardCnt, ShardIndex: f.shardIdx,
		Standby: f.role == "standby", ReplAck: f.replAck,
	}
	if f.faultSpec != "" {
		sp, err := faultinject.ParseSpec(f.faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		sCfg.Faults = sp
		log.Printf("fault injection armed: %s", sp)
	}
	var engine *delivery.Engine
	if f.generate {
		engine = delivery.New(world.New(worldConfig(f)))
		sCfg.Env, sCfg.PolicyMetrics = bounce.NewEnvironment(engine.W), engine.Metrics
	} else {
		sCfg.Env, sCfg.PolicyMetrics = restoreEnv(ctx, f)
	}
	if f.dataDir != "" {
		mode, err := store.ParseFsyncMode(f.fsync)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := store.Open(store.FSOptions{Dir: f.dataDir, Mode: mode, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		sCfg.Store = eng
		sCfg.CheckpointInterval = f.cpEvery
	}

	srv, err := bounced.New(sCfg)
	if err != nil {
		log.Fatal(err)
	}
	if f.dataDir != "" {
		ri := srv.Recovery()
		log.Printf("recovered from %s: checkpoint at %d records, %d replayed from WAL (%d batches re-registered, fsync=%s)",
			f.dataDir, ri.CheckpointRecords, ri.Replayed, ri.Batches, f.fsync)
		if ri.TornTruncated || ri.DroppedUncommitted > 0 {
			log.Printf("recovery repaired a torn WAL tail (%d uncommitted records dropped; their batch was never acked)",
				ri.DroppedUncommitted)
		}
	}
	if f.replay != "" {
		n, err := preload(srv, f.replay)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replayed %d records from %s", n, f.replay)
	}

	// Listen before wiring the standby: its name in the primary's
	// registry is the address it actually bound, so standbys started on
	// ":0" stay distinct.
	ln := listen(f.addr)
	if f.role == "standby" {
		id := ln.Addr().String()
		sl, err := replication.NewStandby(replication.StandbyConfig{
			PrimaryURL:      f.primary,
			ID:              id,
			PollWait:        f.pollWait,
			FailoverTimeout: f.failTO,
		}, srv)
		if err != nil {
			log.Fatal(err)
		}
		srv.SetSync(sl)
		go func() {
			if err := sl.Run(ctx); err != nil {
				log.Printf("sync loop: %v", err)
			}
		}()
		log.Printf("standby %q replicating from %s (failover-timeout %s)", id, f.primary, f.failTO)
	}

	engineDone := make(chan error, 1)
	if engine != nil {
		go func() {
			engineDone <- engine.ParallelRunCtx(ctx, f.workers, func(rec dataset.Record, _ *world.Submission, _ delivery.Truth) {
				if _, err := srv.IngestBatch([]dataset.Record{rec}); err != nil {
					log.Printf("engine ingest: %v", err)
				}
			})
			log.Printf("delivery engine finished (%d records)", srv.Accepted())
		}()
	} else {
		engineDone <- nil
	}

	who := f.role
	if f.role == "shard" {
		who = fmt.Sprintf("shard %d/%d", f.shardIdx, f.shardCnt)
	} else if f.shardCnt > 0 {
		who = fmt.Sprintf("standby for shard %d/%d", f.shardIdx, f.shardCnt)
	}
	// Shutdown order matters for the zero-loss guarantee: stop every
	// producer first (HTTP after in-flight requests, the engine at its
	// next day boundary), then close and drain the queue.
	serveUntil(ctx, ln, srv.Handler(), who, fmt.Sprintf("(seed %d)", f.seed))
	log.Print("shutting down: http stopped, draining queue")
	if err := <-engineDone; err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("engine: %v", err)
	}
	n := srv.Drain()
	log.Printf("drained: %d records in store", n)

	if f.flushSec != "" && n > 0 {
		if err := srv.WriteFinalReport(os.Stdout, bounce.ParseSections(f.flushSec, bounce.AllSections)); err != nil {
			log.Printf("final report: %v", err)
		}
	}
}

// preload streams a JSONL(.gz) dataset file into the service through
// the parallel decoder.
func preload(srv *bounced.Server, path string) (int, error) {
	f, err := dataset.OpenParallel(path, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	for {
		batch, ok := f.NextBatch()
		if !ok {
			return n, f.Err()
		}
		w, err := srv.IngestBatch(batch)
		n += w
		if err != nil {
			return n, err
		}
	}
}

// listen binds the service socket.
func listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	return ln
}

// serveUntil serves h on ln until ctx is cancelled (SIGINT/SIGTERM),
// then restores default signal behaviour — a second Ctrl-C kills — and
// shuts the listener down, giving in-flight requests 30s to finish.
// who and detail frame the "listening on" log line.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler, who, detail string) {
	httpSrv := &http.Server{Handler: h}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	log.Printf("%s listening on %s %s", who, ln.Addr(), detail)
	<-ctx.Done()
	signal.Reset(os.Interrupt, syscall.SIGTERM)
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}

// splitList parses a comma-separated flag value, trimming blanks and
// dropping empty entries.
func splitList(arg string) []string {
	var out []string
	for _, v := range strings.Split(arg, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// loadgenMain is the replay client: it sends a record file to a running
// bounced (or, with -shard-urls, to a sharded deployment) as sequential
// idempotent X-Batch-Id batches, retrying each until it is accepted, so
// the server's report ends byte-identical to batch over the file. -chaos
// arms the client-side fault schedule on top (DESIGN.md §9). Measuring
// is bench/'s job, not this client's.
func loadgenMain(args []string) {
	fs := flag.NewFlagSet("bounced loadgen", flag.ExitOnError)
	var (
		url     = fs.String("url", "http://localhost:8425", "bounced base URL")
		shardsA = fs.String("shard-urls", "", "comma-separated per-shard ingest URLs (shard node or its router); records route by substream ownership and -url is ignored")
		in      = fs.String("in", "", "JSONL(.gz) record file to replay (required)")
		batch   = fs.Int("batch", 500, "records per POST")
		rate    = fs.Float64("rate", 0, "records per second (0 = unthrottled)")
		gz      = fs.Bool("gzip", false, "gzip request bodies")
		chaos   = fs.String("chaos", "", "client-side fault spec, e.g. 'seed=3,torn=0.3,truncgz=0.2,dup=0.5' (DESIGN.md §9); empty = a plain replay")
		seed    = fs.Uint64("seed", 1, "batch-ID namespace and default fault seed")
		retries = fs.Int("retries", 0, "max attempts per batch (0 = default 50)")
		noVerif = fs.Bool("no-verify", false, "skip the server-counter balance check (needed when the server did not start empty or restarts mid-run, which resets its counters)")
		out     = fs.String("out", "-", "write the result JSON here ('-' for stdout)")
	)
	fs.Parse(args)
	if *in == "" {
		log.Fatal("loadgen: -in is required")
	}
	csp, err := faultinject.ParseSpec(*chaos)
	if err != nil {
		log.Fatal(err)
	}
	if csp.Seed == 0 {
		csp.Seed = *seed
	}
	shardURLs := splitList(*shardsA)
	res, err := bounced.Chaos(bounced.ChaosConfig{
		URL: *url, ShardURLs: shardURLs, Path: *in, BatchSize: *batch, Seed: *seed,
		Faults: csp, MaxRetries: *retries, Gzip: *gz, Rate: *rate,
		Progress: os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The zero-loss balance is the run's pass/fail line: every presented
	// record classified exactly once, server-side. A restarted server
	// starts its counters over, so cross-restart drills verify by report
	// differential instead (-no-verify). Sharded runs also skip it: no
	// single node's counters cover the stream (verify via the
	// coordinator's report).
	verdict := "balance unchecked"
	if !*noVerif && len(shardURLs) == 0 {
		if err := bounced.ChaosVerify(*url, res); err != nil {
			log.Fatalf("%v (the balance holds only against a server that started empty; -no-verify skips it)", err)
		}
		verdict = "balance OK"
	}
	log.Printf("loadgen: %d records in %d batches (%d presented, %d retries, %d shed, %d faulted, %d dups) in %.2fs — %s",
		res.Records, res.Batches, res.Presented, res.Retries, res.Shed, res.Faulted, res.Duplicates, res.Seconds, verdict)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		log.Fatal(err)
	}
}
