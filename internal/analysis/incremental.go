package analysis

import (
	"maps"
	"runtime"
	"sync"

	"repro/internal/dataset"
)

// Incremental accumulates delivery records online — the always-on
// counterpart of the batch constructors. Records land in a slab store
// as they arrive; Drain training rides a dedicated trainer goroutine
// (StartTrainer) or is caught up lazily by Snapshot/Finish, and
// Snapshot produces, at any instant, an Analysis identical to a batch
// run over exactly the records added so far (the batch/online
// equivalence invariant the bounced service's differential test
// enforces).
//
// Locking is split three ways so the hot paths never contend:
//
//   - storeMu guards the slab store and popularity counts — the only
//     state Add touches, keeping the ingest critical section to an
//     append and a map bump.
//   - trainMu guards the pipeline builder and the training watermark
//     (how many stored records Drain has absorbed). Lock order is
//     trainMu before storeMu, never the reverse.
//   - snapMu serializes snapshots and guards lastPipes, the previous
//     snapshot's finished pipelines, which FinishWarm reuses the EBRC
//     and the template votes from.
//
// Add, Snapshot, and Len are safe for concurrent use.
type Incremental struct {
	storeMu   sync.Mutex
	store     dataset.RecordStore
	counts    map[string]int
	trainCond *sync.Cond
	stopTrain bool
	trainerDn chan struct{} // non-nil while a trainer goroutine runs

	trainMu sync.Mutex
	b       [NumStreams]*PipelineBuilder // per-substream builders
	trained int                          // records [0,trained) are mined into b

	snapMu    sync.Mutex
	lastPipes [NumStreams]*Pipeline
}

// NewIncremental starts an empty accumulator (zero cfg.TopTemplates
// selects the defaults, as in the batch constructors).
func NewIncremental(cfg PipelineConfig) *Incremental {
	inc := &Incremental{
		counts: make(map[string]int),
	}
	for s := range inc.b {
		inc.b[s] = NewPipelineBuilder(cfg)
	}
	inc.trainCond = sync.NewCond(&inc.storeMu)
	return inc
}

// Add absorbs one record under a short critical section: an isolated
// copy lands in the slab store via arena-backed AppendCopy (the caller
// keeps ownership of rec and may mutate it afterwards) and the
// popularity counts update. Order matters (template mining is
// deterministic in record order), so feed records in stream order.
// Drain training happens asynchronously.
func (inc *Incremental) Add(rec *dataset.Record) {
	dom := rec.ToDomain()
	inc.storeMu.Lock()
	inc.store.AppendCopy(rec)
	inc.counts[dom]++
	inc.storeMu.Unlock()
	inc.trainCond.Signal()
}

// AddBatch absorbs a slice of records under one critical section and
// one trainer wakeup — the batch counterpart of Add, with the same
// copy-on-append isolation. Records are appended in slice order.
func (inc *Incremental) AddBatch(recs []dataset.Record) {
	if len(recs) == 0 {
		return
	}
	inc.storeMu.Lock()
	for i := range recs {
		inc.store.AppendCopy(&recs[i])
		inc.counts[recs[i].ToDomain()]++
	}
	inc.storeMu.Unlock()
	inc.trainCond.Signal()
}

// Len reports how many records have been added.
func (inc *Incremental) Len() int {
	inc.storeMu.Lock()
	defer inc.storeMu.Unlock()
	return inc.store.Len()
}

// StartTrainer launches the dedicated training goroutine, which keeps
// the Drain builder caught up with the store so snapshots find little
// or no training backlog. Idempotent; pair with StopTrainer.
func (inc *Incremental) StartTrainer() {
	inc.storeMu.Lock()
	if inc.trainerDn != nil {
		inc.storeMu.Unlock()
		return
	}
	inc.stopTrain = false
	done := make(chan struct{})
	inc.trainerDn = done
	inc.storeMu.Unlock()
	go inc.trainLoop(done)
}

// StopTrainer stops the trainer goroutine and waits for it to finish
// its current stint. Safe to call when no trainer is running.
func (inc *Incremental) StopTrainer() {
	inc.storeMu.Lock()
	inc.stopTrain = true
	done := inc.trainerDn
	inc.trainerDn = nil
	inc.storeMu.Unlock()
	inc.trainCond.Broadcast()
	if done != nil {
		<-done
	}
}

func (inc *Incremental) trainLoop(done chan struct{}) {
	defer close(done)
	seen := 0
	for {
		inc.storeMu.Lock()
		for !inc.stopTrain && inc.store.Len() == seen {
			inc.trainCond.Wait()
		}
		stop := inc.stopTrain
		n := inc.store.Len()
		view := inc.store.View()
		inc.storeMu.Unlock()
		if n > seen {
			inc.trainMu.Lock()
			inc.trainTo(view, n)
			inc.trainMu.Unlock()
			seen = n
		}
		if stop {
			return
		}
	}
}

// trainTo advances the training watermark to n over an already-taken
// store view, routing each record to its substream's builder. Caller
// holds trainMu.
func (inc *Incremental) trainTo(view dataset.Records, n int) {
	for i := inc.trained; i < n; i++ {
		rec := view.At(i)
		inc.b[StreamOf(rec)].Add(rec)
	}
	if n > inc.trained {
		inc.trained = n
	}
}

// Snapshot builds an Analysis over the records added so far without
// stopping ingestion. The builder is caught up to the store, cloned,
// and finished outside the ingest lock against the previous snapshot's
// pipelines; then every record is classified, fanned out across
// GOMAXPROCS workers with a deterministic indexed merge.
func (inc *Incremental) Snapshot(env *Environment) *Analysis {
	inc.snapMu.Lock()
	defer inc.snapMu.Unlock()

	// trainMu before storeMu: with trainMu held, the watermark cannot
	// move, and the store length read below can only exceed it — so the
	// clone below covers exactly the n records of this snapshot.
	inc.trainMu.Lock()
	inc.storeMu.Lock()
	n := inc.store.Len()
	view := inc.store.View()
	counts := maps.Clone(inc.counts)
	inc.storeMu.Unlock()
	inc.trainTo(view, n)
	var bcs [NumStreams]*PipelineBuilder
	for s := range inc.b {
		bcs[s] = inc.b[s].Clone()
	}
	inc.trainMu.Unlock()

	// Finish each substream warm against its own predecessor — per-shard
	// EBRC and vote reuse even when a sibling shard changed.
	sp := &ShardedPipeline{Shards: make([]*Pipeline, NumStreams)}
	for s := range bcs {
		sp.Shards[s] = bcs[s].FinishWarm(inc.lastPipes[s])
	}
	copy(inc.lastPipes[:], sp.Shards)

	verdicts := make([]ClassifiedRecord, n)
	classifyRange(sp, view, verdicts)
	return assemble(view, verdicts, sp, counts, env)
}

// Finish consumes the accumulator into its final Analysis — the batch
// path. The Incremental must not be used afterwards.
func (inc *Incremental) Finish(env *Environment) *Analysis {
	inc.StopTrainer()
	inc.trainMu.Lock()
	inc.storeMu.Lock()
	n := inc.store.Len()
	view := inc.store.View()
	counts := maps.Clone(inc.counts)
	inc.storeMu.Unlock()
	inc.trainTo(view, n)
	sp := &ShardedPipeline{Shards: make([]*Pipeline, NumStreams)}
	for s := range inc.b {
		sp.Shards[s] = inc.b[s].Finish()
	}
	inc.trainMu.Unlock()

	verdicts := make([]ClassifiedRecord, n)
	classifyRange(sp, view, verdicts)
	return assemble(view, verdicts, sp, counts, env)
}

// classifyRange fills out[i] = classify(view.At(i)) for every i, fanning
// out across GOMAXPROCS workers when there are enough records to
// amortize them. Each worker classifies its contiguous block through
// its own ClassifyCtx (reused token buffers and verdict arenas — the
// zero-alloc batch path). Each slot depends only on its own record, so
// the output is identical for any worker count, and identical to
// per-record sp.ClassifyRecord.
func classifyRange(sp *ShardedPipeline, view dataset.Records, out []ClassifiedRecord) {
	n := len(out)
	workers := runtime.GOMAXPROCS(0)
	if w := n / 2048; workers > w {
		workers = w
	}
	if workers <= 1 {
		cx := sp.NewClassifyCtx()
		for i := range out {
			out[i] = cx.ClassifyRecord(view.At(i))
		}
		return
	}
	var wg sync.WaitGroup
	step := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			cx := sp.NewClassifyCtx()
			for i := lo; i < hi; i++ {
				out[i] = cx.ClassifyRecord(view.At(i))
			}
		}(lo, hi)
	}
	wg.Wait()
}

// assemble wires a classified view into an Analysis — the shared tail
// of every constructor.
func assemble(view dataset.Records, verdicts []ClassifiedRecord, p *ShardedPipeline, counts map[string]int, env *Environment) *Analysis {
	return &Analysis{
		Records:    view,
		Classified: verdicts,
		Pipeline:   p,
		Env:        env,
		rank:       dataset.RankFromCounts(counts),
	}
}
