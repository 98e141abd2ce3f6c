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
// Endpoints: POST /v1/records (NDJSON, gzip-aware), GET /v1/report
// ?section=table1,fig8, GET /v1/stats, POST /v1/snapshot, GET
// /v1/partial (shard snapshot for coordinators), GET /metrics
// (Prometheus text), GET /healthz.
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
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/delivery"
	"repro/internal/faultinject"
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

func serveMain(args []string) {
	fs := flag.NewFlagSet("bounced", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8425", "listen address")
		generate = fs.Bool("generate", false, "feed the service from an in-process delivery engine run")
		replay   = fs.String("replay", "", "preload a JSONL(.gz) dataset before serving")
		emails   = fs.Int("emails", 400_000, "corpus size (generate mode and env replay)")
		seed     = fs.Uint64("seed", 42, "world seed")
		workers  = fs.Int("workers", 1, "delivery fan-out width (generate mode)")
		queue    = fs.Int("queue", 1024, "ingest queue depth (backpressure bound)")
		noEnv    = fs.Bool("no-env", false, "skip world regeneration; env-dependent sections degrade")
		flushSec = fs.String("flush-sections", "overview", "report sections flushed to stdout on shutdown ('' to disable, 'all' for everything)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		faultArg = fs.String("fault-spec", "", "arm deterministic fault injection, e.g. 'seed=7,torn=0.05,stall=2ms' (DESIGN.md §9)")
		readTO   = fs.Duration("read-timeout", 0, "per-request body read deadline; slow-loris cutoff (0 disables)")
		dedupWin = fs.Int("dedup-window", 256, "idempotent X-Batch-Id dedup window, in batches")
		role     = fs.String("role", "single", "node role: single, shard (owns a slice of the 16 substreams), coordinator (merges shard partials), standby (replicates a primary), or router (fronts a replica set)")
		shardIdx = fs.Int("shard-index", 0, "shard/standby role: this node's index in [0, shard-count)")
		shardCnt = fs.Int("shard-count", 0, "shard/standby role: total shards; a record belongs here iff OwnerOf(record, shard-count) == shard-index (standbys carry their shard primary's values so ownership survives promotion)")
		shardArg = fs.String("shards", "", "coordinator role: comma-separated shard base URLs (their order is the merge order)")
		dataDir  = fs.String("data-dir", "", "durability directory (WAL + checkpoints); boot recovers from it, empty = memory-only")
		cpEvery  = fs.Duration("checkpoint-interval", 30*time.Second, "background checkpoint cadence with -data-dir (0 disables; shutdown still checkpoints)")
		fsyncArg = fs.String("fsync", "batch", "WAL fsync mode with -data-dir: batch (per acked batch), always, or off (flush-to-OS only)")
		primary  = fs.String("primary", "", "standby role: the primary's base URL to replicate from")
		sbID     = fs.String("standby-id", "", "standby role: this node's name in the primary's standby registry (default the listen address)")
		pollWait = fs.Duration("poll-interval", 2*time.Second, "standby role: WAL long-poll hold time on the primary")
		failTO   = fs.Duration("failover-timeout", 0, "standby role: auto-promote after this long without a successful sync (0 = manual /v1/promote only)")
		peersArg = fs.String("peers", "", "router role: comma-separated replica-set base URLs to probe and forward to")
		replAck  = fs.Int("repl-ack", 0, "primary: semi-sync — gate each ingest ack on this many standbys having applied the batch (0 = async)")
		replAckT = fs.Duration("repl-ack-timeout", 5*time.Second, "primary: semi-sync ack wait bound; on expiry the client gets a retryable 503")
	)
	fs.Parse(args)

	if *pprofOn {
		// CPU and heap endpoints work unconditionally; contention
		// profiling needs explicit sampling turned on. Rates follow the
		// net/http/pprof documentation: every 1000th contended mutex
		// event, and block events with ≥100µs of cumulative wait —
		// cheap enough to leave on for a profiling run, informative
		// enough to rank the walMu/storeMu critical sections.
		runtime.SetMutexProfileFraction(1000)
		runtime.SetBlockProfileRate(100_000)
	}

	switch *role {
	case "single":
	case "shard":
		if *shardCnt <= 0 || *shardIdx < 0 || *shardIdx >= *shardCnt {
			log.Fatalf("-role=shard needs 0 <= -shard-index < -shard-count (got index %d, count %d)", *shardIdx, *shardCnt)
		}
		if *generate {
			log.Fatal("-generate is incompatible with -role=shard: feed shards over HTTP so records route by ownership")
		}
	case "coordinator":
		if *shardArg == "" {
			log.Fatal("-role=coordinator requires -shards (comma-separated shard base URLs)")
		}
		if *generate || *replay != "" {
			log.Fatal("-role=coordinator holds no records; -generate and -replay are shard-side flags")
		}
		if *dataDir != "" {
			log.Fatal("-role=coordinator holds no records; -data-dir is a single/shard flag")
		}
	case "standby":
		if *primary == "" {
			log.Fatal("-role=standby requires -primary (the primary's base URL)")
		}
		if *dataDir == "" {
			log.Fatal("-role=standby requires -data-dir: a standby replays the primary's WAL into its own durable log so it can survive promotion")
		}
		if *generate || *replay != "" {
			log.Fatal("-role=standby refuses local ingestion; -generate and -replay are primary-side flags")
		}
		// A standby may replicate a *shard* primary; it then carries the
		// same shard coordinates so a promotion keeps enforcing ownership.
		if (*shardCnt != 0 || *shardIdx != 0) && (*shardCnt <= 0 || *shardIdx < 0 || *shardIdx >= *shardCnt) {
			log.Fatalf("standby shard attachment needs 0 <= -shard-index < -shard-count (got index %d, count %d)", *shardIdx, *shardCnt)
		}
	case "router":
		if *peersArg == "" {
			log.Fatal("-role=router requires -peers (comma-separated replica-set base URLs)")
		}
		if *generate || *replay != "" || *dataDir != "" {
			log.Fatal("-role=router holds no records; -generate, -replay, and -data-dir are replica-side flags")
		}
	default:
		log.Fatalf("unknown -role %q (want single, shard, coordinator, standby, or router)", *role)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *role == "router" {
		// Routers hold no records and serve no reports of their own, so
		// they skip the world/env restore entirely.
		peers := splitList(*peersArg)
		rt, err := replication.NewRouter(replication.RouterConfig{Peers: peers})
		if err != nil {
			log.Fatal(err)
		}
		go rt.Run(ctx)
		serveUntil(ctx, *addr, rt.Handler(), "router", fmt.Sprintf("over %d peers", len(peers)))
		return
	}

	cfg := world.DefaultConfig()
	cfg.TotalEmails = *emails
	cfg.Seed = *seed

	sCfg := bounced.Config{
		QueueDepth: *queue, Seed: *seed, EnablePprof: *pprofOn,
		ReadTimeout: *readTO, DedupWindow: *dedupWin,
		Standby: *role == "standby", ReplAck: *replAck, ReplAckTimeout: *replAckT,
	}
	if *faultArg != "" {
		sp, err := faultinject.ParseSpec(*faultArg)
		if err != nil {
			log.Fatal(err)
		}
		sCfg.Faults = sp
		log.Printf("fault injection armed: %s", sp)
	}
	var engine *delivery.Engine
	var w *world.World
	switch {
	case *generate:
		w = world.New(cfg)
		engine = delivery.New(w)
		sCfg.Env = bounce.NewEnvironment(w)
		sCfg.PolicyMetrics = engine.Metrics
	case !*noEnv:
		// Ingest mode: regenerate the world from the seed and replay the
		// delivery (discarding records) to restore the stateful external
		// services — blocklist listings accrue during delivery — exactly
		// like bounceanalyze -in does.
		log.Printf("restoring environment (seed %d, %d emails); -no-env skips this", *seed, *emails)
		w = world.New(cfg)
		e := delivery.New(w)
		if err := e.ParallelRunCtx(ctx, *workers, func(dataset.Record, *world.Submission, delivery.Truth) {}); err != nil {
			log.Fatal(err)
		}
		sCfg.Env = bounce.NewEnvironment(w)
		sCfg.PolicyMetrics = e.Metrics
	}

	if *role == "coordinator" {
		urls := splitList(*shardArg)
		coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: urls, Env: sCfg.Env})
		if err != nil {
			log.Fatal(err)
		}
		// Coordinators hold no records: shutdown is just closing the
		// listener, no drain and no final report.
		serveUntil(ctx, *addr, coord.Handler(), "coordinator", fmt.Sprintf("over %d shards", len(urls)))
		return
	}
	if *role == "shard" || (*role == "standby" && *shardCnt > 0) {
		sCfg.ShardCount = *shardCnt
		sCfg.ShardIndex = *shardIdx
	}

	if *dataDir != "" {
		mode, err := store.ParseFsyncMode(*fsyncArg)
		if err != nil {
			log.Fatal(err)
		}
		eng, err := store.Open(store.FSOptions{Dir: *dataDir, Mode: mode, Logf: log.Printf})
		if err != nil {
			log.Fatal(err)
		}
		sCfg.Store = eng
		sCfg.CheckpointInterval = *cpEvery
	}

	srv, err := bounced.New(sCfg)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		ri := srv.Recovery()
		log.Printf("recovered from %s: checkpoint at %d records, %d replayed from WAL (%d batches re-registered, fsync=%s)",
			*dataDir, ri.CheckpointRecords, ri.Replayed, ri.Batches, *fsyncArg)
		if ri.TornTruncated || ri.DroppedUncommitted > 0 {
			log.Printf("recovery repaired a torn WAL tail (%d uncommitted records dropped; their batch was never acked)",
				ri.DroppedUncommitted)
		}
	}

	if *role == "standby" {
		id := *sbID
		if id == "" {
			id = *addr
		}
		sl, err := replication.NewStandby(replication.StandbyConfig{
			PrimaryURL:      *primary,
			ID:              id,
			PollWait:        *pollWait,
			FailoverTimeout: *failTO,
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
		log.Printf("standby %q replicating from %s (failover-timeout %s)", id, *primary, *failTO)
	}

	if *replay != "" {
		n, err := preload(srv, *replay)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replayed %d records from %s", n, *replay)
	}

	engineDone := make(chan error, 1)
	if engine != nil {
		go func() {
			engineDone <- engine.ParallelRunCtx(ctx, *workers, func(rec dataset.Record, _ *world.Submission, _ delivery.Truth) {
				if _, err := srv.IngestBatch([]dataset.Record{rec}); err != nil {
					log.Printf("engine ingest: %v", err)
				}
			})
			log.Printf("delivery engine finished (%d records)", srv.Accepted())
		}()
	} else {
		engineDone <- nil
	}

	who := *role
	if *role == "shard" {
		who = fmt.Sprintf("shard %d/%d", *shardIdx, *shardCnt)
	} else if sCfg.ShardCount > 0 {
		who = fmt.Sprintf("standby for shard %d/%d", *shardIdx, *shardCnt)
	}
	// Shutdown order matters for the zero-loss guarantee: stop every
	// producer first (HTTP after in-flight requests, the engine at its
	// next day boundary), then close and drain the queue.
	serveUntil(ctx, *addr, srv.Handler(), who, fmt.Sprintf("(seed %d)", *seed))
	log.Print("shutting down: http stopped, draining queue")
	if err := <-engineDone; err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("engine: %v", err)
	}
	n := srv.Drain()
	log.Printf("drained: %d records in store", n)

	if *flushSec != "" && n > 0 {
		if err := srv.WriteFinalReport(os.Stdout, bounce.ParseSections(*flushSec, bounce.AllSections)); err != nil {
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

// serveUntil serves h on addr until ctx is cancelled (SIGINT/SIGTERM),
// then restores default signal behaviour — a second Ctrl-C kills — and
// shuts the listener down, giving in-flight requests 30s to finish.
// who and detail frame the "listening on" log line.
func serveUntil(ctx context.Context, addr string, h http.Handler, who, detail string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
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
