// Package bounced implements the always-on bounce-analytics service:
// an HTTP server that ingests Figure-3 delivery records online and
// serves the paper's analyses live. Where bouncegen/bounceanalyze are
// one-shot batch tools, bounced mirrors the production shape of the
// paper's pipeline at Coremail — telemetry arrives continuously, and
// every table and figure is queryable at any instant over exactly the
// records ingested so far.
//
// The data path is a single bounded pipeline, and commit is its only
// way in:
//
//	POST /v1/records ───────┐                               ┌─ GET /v1/report  (batch-identical bytes)
//	engine -generate/-replay ├─▶ commit ─▶ queue ─▶ store ──┼─ GET /v1/stats   (JSON counters)
//	replication ApplyBatch ──┘  (WAL)     (Pipe) (Incremental)└─ GET /metrics    (Prometheus text)
//
// Ingestion accepts NDJSON batches (gzip-aware, line-numbered 400s on
// malformed lines) and backpressures producers through the bounded
// queue. Reports are served from analysis.Incremental snapshots, so
// GET /v1/report returns byte-identical output to a bounceanalyze
// batch run over the same records — the equivalence the differential
// test enforces. Graceful shutdown drains the queue completely and
// flushes a final snapshot; no accepted record is ever dropped.
package bounced

import (
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/ndr"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/simrng"
	"repro/internal/stats"
	"repro/internal/store"
)

// ErrIngestClosed is returned by IngestBatch once shutdown has begun.
var ErrIngestClosed = errors.New("bounced: ingestion closed")

// Config assembles a Server.
type Config struct {
	// Env supplies the external services (geo, blocklist, leak corpus,
	// registries) report sections consult. May be nil for ingest-only
	// deployments; env-dependent sections then return zero results.
	Env *analysis.Environment
	// QueueDepth bounds the ingest queue (default 1024). Producers
	// block once it fills — backpressure, not loss.
	QueueDepth int
	// PolicyMetrics, when set, surfaces per-stage policy-chain
	// rejection counters on /v1/stats and /metrics (from the delivery
	// engine backing -generate mode or the startup replay).
	PolicyMetrics *policy.Metrics
	// Seed is reported on /v1/stats so clients can reproduce the
	// environment.
	Seed uint64
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ on the service mux.
	EnablePprof bool
	// ReadTimeout bounds how long one /v1/records request may spend
	// reading its body — the slow-loris countermeasure. Zero disables
	// the per-request deadline.
	ReadTimeout time.Duration
	// Faults, when active, injects deterministic stream faults into
	// every ingest request and stalls the store consumer (-fault-spec).
	Faults *faultinject.Spec
	// DedupWindow is how many recent batch IDs the idempotency window
	// remembers (default 256). A replayed X-Batch-Id inside the window
	// is acknowledged without re-ingesting its records, which is what
	// makes client retries after a 429 or a dropped response safe.
	DedupWindow int
	// ShardCount > 0 puts the node in shard role: HTTP ingestion admits
	// only records owned by this shard (analysis.OwnerOf(rec, ShardCount)
	// == ShardIndex) and rejects others as line errors, so a misrouted
	// feed fails loudly instead of double-counting. ShardIndex must be
	// in [0, ShardCount). Zero means single role: own everything.
	ShardCount int
	ShardIndex int
	// Store, when set, makes the node durable: every admitted record is
	// WAL-appended before its ack, checkpoints capture the analysis
	// state off the hot path, and New recovers from the newest
	// checkpoint plus the WAL tail. The Server owns the engine from New
	// on (Drain/Abort close it). Nil keeps the server memory-only.
	Store store.Engine
	// CheckpointInterval is the background checkpoint cadence when a
	// Store is configured. Zero disables periodic checkpoints; Drain
	// still takes a final one, and POST /v1/checkpoint forces one.
	CheckpointInterval time.Duration
	// Standby boots the node as a replication standby: ingestion is
	// refused with a retryable 503 and records arrive only through
	// ApplyBatch (the replication sync loop). Requires a Store. A
	// standby flips to primary via Promote (POST /v1/promote or the
	// sync loop's heartbeat timeout).
	Standby bool
	// ReplAck > 0 makes acks semi-synchronous: an ingest response
	// leaves only after this many standbys confirm they applied the
	// batch's records. With a standby attached this is what makes
	// "zero acked records lost" across failover a guarantee — anything
	// the client saw acked is already on the survivor.
	ReplAck int
	// ReplAckTimeout bounds a semi-sync ack wait (default 5s); on
	// expiry the batch stays in the local WAL but the client gets a
	// retryable 503 and must retry the same X-Batch-Id.
	ReplAckTimeout time.Duration
}

// Server is the bounce-analytics service. Create with New, mount
// Handler on an http.Server, and stop with Drain (graceful) or Abort.
type Server struct {
	cfg   Config
	inc   *analysis.Incremental
	queue *dataset.Pipe

	accepted atomic.Uint64 // records admitted to the queue
	consumed atomic.Uint64 // records folded into the store
	badLines atomic.Uint64 // rejected NDJSON lines
	batches  atomic.Uint64 // POST /v1/records calls admitted

	// Overload-shedding and idempotency accounting. The zero-loss
	// balance every chaos run must satisfy, per request classified
	// exactly once: accepted + shed + rejected + deduped == presented.
	reserved     atomic.Int64  // queue slots reserved by admitted, unconsumed records
	shedRecords  atomic.Uint64 // records refused with 429 (declared batch size)
	shedBatches  atomic.Uint64 // batches refused with 429
	rejected     atomic.Uint64 // records refused with 4xx (malformed/oversized)
	deduped      atomic.Uint64 // records skipped as batch-ID replays
	dedupBatches atomic.Uint64 // batches acknowledged from the dedup window
	shedStreak   atomic.Uint64 // consecutive sheds, drives the Retry-After backoff
	retryRNG     *simrng.RNG   // jitter source for Retry-After hints
	retryRNGMu   sync.Mutex

	faults *faultinject.Injector
	dedup  dedupWindow

	// walMu is commit's ordering lock: dedup re-check, WAL append, ID
	// registration and queue write happen under it on every node, so
	// replay order equals store-fold order — the property that makes
	// recovery byte-identical. walIndex is the log end in record indices
	// (it stays 0 without a log) and is bumped under walMu so it always
	// equals the log end in append order. incMu protects the s.inc
	// pointer itself, which a standby resync (ResetTo) swaps while
	// readers are live. epoch is the fencing token: promotion bumps it,
	// the checkpoint persists it, and the router prefers the highest one
	// it can see. Every node has these — a memory-only one answers
	// /v1/repl/status as a primary at epoch 1.
	walMu    sync.Mutex
	walIndex atomic.Uint64
	incMu    sync.RWMutex
	standby  atomic.Bool
	epoch    atomic.Uint64

	// j is everything that exists only with Config.Store (durable.go);
	// nil on a memory-only node. A standby always has one: New refuses
	// Config.Standby without a Store.
	j *journal

	// consumedCond broadcasts store progress for drain barriers: a
	// report taken after an ingest request returns covers everything
	// that request admitted.
	consumedMu   sync.Mutex
	consumedCond *sync.Cond
	consumerDone bool

	// live classification state: the most recent snapshot pipeline
	// labels records as they arrive for the /metrics counters and the
	// classify-latency histogram. obsPool recycles per-goroutine
	// ClassifyCtx wrappers (zero-alloc classification); a pooled ctx
	// bound to a superseded pipeline is dropped on retrieval.
	liveMu   sync.RWMutex
	livePipe *analysis.ShardedPipeline
	obsPool  sync.Pool // of *obsCtx

	histMu    sync.Mutex // guards hist
	hist      stats.Histogram
	degrees   [3]atomic.Uint64            // by dataset.Degree
	typeHits  map[ndr.Type]*atomic.Uint64 // live bounce-type counters
	ambiguous atomic.Uint64

	// snapshot cache: rebuilding is skipped while no new records have
	// been consumed since the last snapshot. snapMs holds the wall time
	// of the most recent snapshot build.
	snapMu    sync.Mutex
	snapStudy *bounce.Study
	snapAt    uint64 // consumed count the cached snapshot covers
	snapMs    float64

	// partial snapshot cache: the marshaled round-1 partial aggregate
	// for the cached study (rebuilt only when the study advances), which
	// is also the study round 2 is answered from.
	partialMu    sync.Mutex
	partialFor   *bounce.Study
	partialBytes []byte
	snapTaken    atomic.Uint64
	startedAt    time.Time
	closed       atomic.Bool
	consumerWG   sync.WaitGroup
}

// New creates a Server and starts its store consumer. With a
// configured Store it first recovers: newest decodable checkpoint,
// then a WAL-tail replay, so the server resumes exactly where the
// previous process — cleanly drained or killed — left off.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 256
	}
	if cfg.Standby && cfg.Store == nil {
		return nil, errors.New("bounced: a standby needs a storage engine (replication ships WAL tails)")
	}
	if cfg.ReplAck > 0 && cfg.Store == nil {
		return nil, errors.New("bounced: semi-sync acks (ReplAck) need a storage engine: without a WAL nothing replicates and every ack would pass ungated")
	}
	s := &Server{
		cfg:       cfg,
		inc:       analysis.NewIncremental(analysis.PipelineConfig{}),
		queue:     dataset.NewPipe(cfg.QueueDepth),
		hist:      stats.NewHistogram(latencyBounds),
		typeHits:  make(map[ndr.Type]*atomic.Uint64, len(ndr.AllTypes)),
		startedAt: time.Now(),
		faults:    faultinject.New(cfg.Faults),
		retryRNG:  simrng.New(cfg.Seed).Stream("retry-after"),
	}
	s.dedup.init(cfg.DedupWindow)
	s.consumedCond = sync.NewCond(&s.consumedMu)
	for _, t := range ndr.AllTypes {
		s.typeHits[t] = new(atomic.Uint64)
	}
	s.epoch.Store(1)
	s.standby.Store(cfg.Standby)
	if cfg.Store != nil {
		var err error
		if s.j, err = openJournal(s); err != nil {
			return nil, err
		}
	}
	s.inc.StartTrainer()
	s.consumerWG.Add(1)
	go s.consume()
	return s, nil
}

// Handler returns the service's HTTP routes: what every node serves,
// plus the journal's endpoints on a node that has one. A wrong method
// is the mux's 405 with an Allow header, a journal endpoint on a
// memory-only node its 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/records", s.handleRecords)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/partial", s.handlePartial)
	mux.HandleFunc("POST /v1/partial", s.handleScopedPartial)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("GET "+replication.PathStatus, s.handleReplStatus)
	if s.j != nil {
		mux.HandleFunc("POST /v1/checkpoint", s.j.handleCheckpoint)
		mux.HandleFunc("GET "+replication.PathWAL, s.j.handleWAL)
		mux.HandleFunc("GET "+replication.PathCheckpoint, s.j.handleReplCheckpoint)
		mux.HandleFunc("POST "+replication.PathPromote, s.j.handlePromote)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	return mux
}

// tryAdmit reserves n queue slots without blocking: the admission
// check HTTP batch ingestion sheds on. The reservation counts records
// admitted but not yet consumed, so a grant means the queue will have
// room as the consumer drains — writers never block indefinitely
// behind a full buffer. A request larger than the whole queue (only a
// replicated unit from a primary with a deeper -queue can be one) is
// granted once nothing else is reserved, and drains through the queue
// while its commit writes it.
func (s *Server) tryAdmit(n int) bool {
	depth := int64(s.cfg.QueueDepth)
	for {
		r := s.reserved.Load()
		if r+int64(n) > depth && r > 0 {
			return false
		}
		if s.reserved.CompareAndSwap(r, r+int64(n)) {
			return true
		}
	}
}

// admitWait reserves n slots, blocking until the consumer frees
// enough — the backpressure path of IngestBatch and ApplyBatch.
// Returns false once shutdown begins.
func (s *Server) admitWait(n int) bool {
	s.consumedMu.Lock()
	defer s.consumedMu.Unlock()
	for {
		if s.closed.Load() {
			return false
		}
		if s.tryAdmit(n) {
			return true
		}
		if s.consumerDone {
			return false
		}
		s.consumedCond.Wait()
	}
}

// duplicateBatch is commit's verdict on a batch ID that registered
// while this request was still decoding or waiting for admission; its
// value is the record count the original was acked with.
type duplicateBatch int

func (duplicateBatch) Error() string { return "bounced: batch id already committed" }

// commit is the one place a record enters the node. Its sources are
// IngestBatch (in-process producers and streamed HTTP bodies), the
// X-Batch-Id branch of ingestBody, and ApplyBatch (replicated units);
// each holds a reservation for len(recs), which commit hands on to the
// consumer or releases. payloads is ApplyBatch's alone: the bytes its
// primary's log holds for recs, which this node's log then holds too
// (store.Batch.Payloads); every other source passes nil and the engine
// encodes. It returns how many records reached the queue and the log
// end after the append. A short count comes with ErrIngestClosed:
// shutdown raced the batch, and on a durable node recovery folds the
// dropped tail back in from the log.
func (s *Server) commit(id string, idCount int, recs []dataset.Record, payloads [][]byte) (int, uint64, error) {
	s.walMu.Lock()
	n, err := s.commitOrdered(id, idCount, recs, payloads)
	end := s.walIndex.Load()
	s.walMu.Unlock()
	s.reserved.Add(-int64(len(recs) - n))
	s.accepted.Add(uint64(n))
	s.observeBatch(recs[:n])
	return n, end, err
}

// commitOrdered is commit's walMu section, the single implementation
// of the ordering every node's log and fold share:
//
//   - the dedup window is checked again, so check-and-register is atomic
//     and of two overlapping requests with one ID exactly one is folded
//     (a standby skips this: its primary already decided, and a resync
//     checkpoint may carry the ID of a unit whose records it still owes);
//   - the records go to the log as one unit and walIndex follows, so it
//     always equals the log end in append order;
//   - id registers with idCount — before any ack, and before any of the
//     records can be consumed, so no checkpoint captures the records
//     while missing the ID (which would double-count a post-crash retry);
//   - one queue write, inside the section so that replay order equals
//     fold order here and on every node applying this log — what makes
//     recovery and failover byte-identical.
func (s *Server) commitOrdered(id string, idCount int, recs []dataset.Record, payloads [][]byte) (int, error) {
	if id != "" && !s.standby.Load() {
		if prev, ok := s.dedup.lookup(id); ok {
			return 0, duplicateBatch(prev)
		}
	}
	if s.j != nil {
		if err := s.j.eng.Append(store.Batch{ID: id, Records: recs, Payloads: payloads}); err != nil {
			return 0, fmt.Errorf("bounced: wal append: %w", err)
		}
		s.walIndex.Add(uint64(len(recs)))
	}
	if id != "" {
		s.dedup.register(id, idCount)
	}
	n, err := s.queue.WriteBatch(recs)
	if err != nil {
		err = ErrIngestClosed
	}
	return n, err
}

// incState returns the current analysis accumulator. The pointer is
// stable for the caller's use — a standby resync swaps s.inc for a
// fresh accumulator but never mutates the old one again — so holding
// the read lock only around the load is enough.
func (s *Server) incState() *analysis.Incremental {
	s.incMu.RLock()
	defer s.incMu.RUnlock()
	return s.inc
}

// owns reports whether this node's shard role covers rec. Single-role
// nodes own everything; shard nodes own the substreams OwnerOf assigns
// them.
func (s *Server) owns(rec *dataset.Record) bool {
	return s.cfg.ShardCount <= 0 || analysis.OwnerOf(rec, s.cfg.ShardCount) == s.cfg.ShardIndex
}

// ingestSubBatch caps how many records IngestBatch admits per
// reservation — small enough that a sub-batch never starves other
// producers of the whole queue, large enough to amortize the admission
// and WAL costs.
const ingestSubBatch = 256

// IngestBatch commits a slice of records under blocking admission —
// the backpressure in-process producers (-generate, -replay) and
// streamed HTTP bodies share — in sub-batches, so one caller cannot
// reserve the entire queue; a single record is a batch of one. Records
// are committed in slice order and the caller keeps ownership of recs
// afterwards (the queue copies). The live metrics update on the
// producer's goroutine, so concurrent producers classify in parallel
// instead of serializing on the single store consumer. It reports how
// many records were queued — short only when shutdown (or a WAL
// failure) interrupts the batch. It checks no ownership: owns is the
// HTTP body handler's test, so a shard must be fed over HTTP (which is
// why cmd/bounced refuses -generate and -replay in the shard role).
func (s *Server) IngestBatch(recs []dataset.Record) (int, error) {
	sub := min(ingestSubBatch, s.cfg.QueueDepth)
	done := 0
	for done < len(recs) {
		if s.closed.Load() {
			return done, ErrIngestClosed
		}
		if s.standby.Load() {
			return done, errStandbyIngest
		}
		n := min(len(recs)-done, sub)
		if !s.admitWait(n) {
			return done, ErrIngestClosed
		}
		w, _, err := s.commit("", 0, recs[done:done+n], nil)
		done += w
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// consume is the single store writer: it drains whatever the queue
// holds in one ring-buffer pass and folds it into the incremental
// analysis store under one critical section (Drain training rides the
// Incremental's own trainer goroutine), so the consumer keeps pace with
// many producers.
func (s *Server) consume() {
	defer s.consumerWG.Done()
	defer func() {
		s.consumedMu.Lock()
		s.consumerDone = true
		s.consumedCond.Broadcast()
		s.consumedMu.Unlock()
	}()
	size, stall := ingestSubBatch, s.faults.ConsumerStall()
	if stall > 0 {
		// Injected downstream stall: the consumer wedges per record,
		// which is what backs the queue up and exercises shedding.
		size = 1
	}
	batch := make([]dataset.Record, size)
	for {
		n, ok := s.queue.NextBatch(batch)
		if !ok {
			return
		}
		time.Sleep(stall) // zero unless injected
		s.incState().AddBatch(batch[:n])
		clear(batch[:n]) // the store copied; do not pin record strings
		s.consumed.Add(uint64(n))
		s.reserved.Add(-int64(n))
		s.consumedMu.Lock()
		s.consumedCond.Broadcast()
		s.consumedMu.Unlock()
	}
}

// dedupWindow is a FIFO idempotency window over recent batch IDs. A
// batch ID is registered only after its records are fully admitted, so
// a shed or rejected batch can be retried under the same ID.
type dedupWindow struct {
	mu    sync.Mutex
	seen  map[string]int // batch ID -> records accepted
	order []string
	cap   int
}

func (d *dedupWindow) init(capacity int) {
	d.seen = make(map[string]int, capacity)
	d.cap = capacity
}

// lookup reports the accepted-record count of a previously admitted
// batch ID.
func (d *dedupWindow) lookup(id string) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.seen[id]
	return n, ok
}

// register remembers an admitted batch, evicting the oldest entry once
// the window is full.
func (d *dedupWindow) register(id string, n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.add(id, n)
}

// add is register with d.mu held (restore adds a whole section).
func (d *dedupWindow) add(id string, n int) {
	if _, ok := d.seen[id]; ok {
		return
	}
	if len(d.order) >= d.cap {
		delete(d.seen, d.order[0])
		d.order = d.order[1:]
	}
	d.seen[id] = n
	d.order = append(d.order, id)
}

// retryAfter computes the shed-response backoff hint: exponential in
// the current shed streak with deterministic jitter, so a retrying
// client herd spreads out instead of stampeding the next admission
// window.
func (s *Server) retryAfter() time.Duration {
	streak := s.shedStreak.Add(1)
	if streak > 7 {
		streak = 7
	}
	base := 50 * time.Millisecond << (streak - 1)
	s.retryRNGMu.Lock()
	jitter := 0.7 + 0.6*s.retryRNG.Float64() // ±30%
	s.retryRNGMu.Unlock()
	return time.Duration(float64(base) * jitter)
}

// obsCtx pairs a reusable zero-alloc classification context with the
// pipeline it was built over, so the pool can detect and drop contexts
// orphaned by a snapshot swap.
type obsCtx struct {
	pipe *analysis.ShardedPipeline
	cx   *analysis.ClassifyCtx
}

// obsCtxFor returns a pooled classification context for p, building a
// fresh one when the pool is empty or its context predates p.
func (s *Server) obsCtxFor(p *analysis.ShardedPipeline) *obsCtx {
	if v := s.obsPool.Get(); v != nil {
		if oc := v.(*obsCtx); oc.pipe == p {
			return oc
		}
	}
	return &obsCtx{pipe: p, cx: p.NewClassifyCtx()}
}

// observeBatch updates the live metrics for committed records: bounce
// degree always, bounce types and classify latency once a snapshot
// pipeline exists. Live counters are an operational view labeled by the
// latest snapshot — reports always re-classify against a fresh one.
func (s *Server) observeBatch(recs []dataset.Record) {
	for i := range recs {
		s.degrees[int(recs[i].BounceDegree())].Add(1)
	}
	s.liveMu.RLock()
	p := s.livePipe
	s.liveMu.RUnlock()
	if p == nil {
		return
	}
	oc := s.obsCtxFor(p)
	for i := range recs {
		s.observeClassified(oc, &recs[i])
	}
	s.obsPool.Put(oc)
}

// observeClassified classifies one record through oc and folds the
// verdict into the live counters and the classify-latency histogram.
func (s *Server) observeClassified(oc *obsCtx, rec *dataset.Record) {
	start := time.Now()
	c := oc.cx.ClassifyRecord(rec)
	d := time.Since(start).Nanoseconds()
	s.histMu.Lock()
	s.hist.Observe(d)
	s.histMu.Unlock()
	if c.Ambiguous {
		s.ambiguous.Add(1)
		return
	}
	for _, t := range c.Types {
		if ctr, ok := s.typeHits[t]; ok {
			ctr.Add(1)
		}
	}
}

// waitConsumed blocks until the store has folded in at least target
// records (or the consumer exited) and reports whether the target was
// reached — the barrier that makes a report cover every record whose
// ingest request already returned.
func (s *Server) waitConsumed(target uint64) bool {
	s.consumedMu.Lock()
	defer s.consumedMu.Unlock()
	for s.consumed.Load() < target && !s.consumerDone {
		s.consumedCond.Wait()
	}
	return s.consumed.Load() >= target
}

// Drain closes ingestion, waits for the queue to empty into the
// store, and returns the final record count. Every record admitted
// before Drain is in the store when it returns — the zero-loss
// shutdown guarantee. Callers must stop HTTP traffic first
// (http.Server.Shutdown), so no writer is mid-flight.
func (s *Server) Drain() uint64 {
	if s.closed.CompareAndSwap(false, true) {
		s.queue.Close()
	}
	s.stop(true)
	return s.consumed.Load()
}

// Abort hard-stops the service: buffered records are discarded and
// blocked producers unblock with errors. For tests and emergency
// teardown only; Drain is the production path. On durable nodes Abort
// deliberately skips the final checkpoint — it is the crash-shaped
// teardown, and recovery must rebuild the dropped queue tail from the
// WAL alone.
func (s *Server) Abort() {
	s.closed.Store(true)
	s.queue.CloseRead()
	s.stop(false)
}

// stop waits out the consumer and the trainer, then closes the journal,
// behind a final checkpoint when the shutdown is graceful.
func (s *Server) stop(graceful bool) {
	s.consumerWG.Wait()
	s.incState().StopTrainer()
	if s.j != nil {
		s.j.close(graceful)
	}
}

// Accepted reports how many records ingestion has admitted.
func (s *Server) Accepted() uint64 { return s.accepted.Load() }

// Consumed reports how many records the store has folded in.
func (s *Server) Consumed() uint64 { return s.consumed.Load() }
