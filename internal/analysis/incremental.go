package analysis

import (
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// Incremental accumulates delivery records online. Records land in a
// slab store as they arrive; Drain training rides a dedicated trainer
// goroutine (StartTrainer) or is caught up lazily by Snapshot, and
// Snapshot produces, at any instant, an Analysis identical to a batch
// run over exactly the records added so far (the batch/online
// equivalence invariant the bounced service's differential test
// enforces). Its body, build, is the only code that makes an Analysis:
// New runs it over a plain slice, NewFromSource and bounceanalyze
// -data-dir through Snapshot.
//
// Locking is split three ways so the hot paths never contend:
//
//   - storeMu guards the slab store and popularity counts — the only
//     state Add touches, keeping the ingest critical section to an
//     append and a map bump.
//   - trainMu guards the pipeline builder and the training watermark
//     (how many stored records Drain has absorbed). Lock order is
//     trainMu before storeMu, never the reverse.
//   - snapMu serializes snapshots and guards what one hands the next:
//     lastPipes, the previous snapshot's finished pipelines, which
//     FinishWarm reuses the EBRC counts and the template votes from,
//     and last, its verdicts and the round-1 fold of its clean records.
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
	// dirty lists, ascending, the trained records that are not clean
	// (see clean). Append-only: a snapshot keeps the prefix it read.
	dirty []int32

	snapMu    sync.Mutex
	lastPipes [NumStreams]*Pipeline
	last      *carried
}

// carried is what a snapshot hands the next one of what no pipeline
// can change. A clean record's verdict is setFacts and a TNone per
// line: no tree, no classifier, no other record goes into it, so
// neither it nor its fold into the cheap collectors can change as the
// corpus grows. Nor can any record's fold into the fact collectors
// (PartialSet.addFacts), which read only what setFacts derives.
// verdicts is the snapshot's own slice, fold the round-1 fold of every
// record's facts and of the clean records' labels, and index what the
// clean records add to the scoped detect and Figure-7 folds; all three
// are frozen: the snapshot's study may still be reading them while the
// next snapshot copies or extends them.
type carried struct {
	verdicts []ClassifiedRecord
	fold     *PartialSet
	index    *cleanIndex
	env      *Environment // fold's collectors read it
}

// clean reports whether every delivery line of rec is a 2xx — at least
// one, since a record with no attempt failed. Only such a record's
// verdict and fold are carried across snapshots.
func clean(rec *dataset.Record) bool {
	for _, line := range rec.DeliveryResult {
		if !strings.HasPrefix(line, "2") {
			return false
		}
	}
	return len(rec.DeliveryResult) > 0
}

// NewIncremental starts an empty accumulator (zero cfg.TopTemplates
// selects the defaults, as in NewPipelineBuilder).
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

// Add absorbs one record under a short critical section: a copy that
// shares no memory with rec lands in the slab store (AppendCopy; the
// caller keeps ownership of rec and whatever backs it) and the
// popularity counts update. Order matters (template mining is
// deterministic in record order), so feed records in stream order.
// Drain training happens asynchronously.
func (inc *Incremental) Add(rec *dataset.Record) {
	inc.storeMu.Lock()
	inc.absorb(rec)
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
		inc.absorb(&recs[i])
	}
	inc.storeMu.Unlock()
	inc.trainCond.Signal()
}

// absorb stores a copy of rec and counts its receiver domain, keyed by
// the stored copy's: a key taken from rec would pin the memory rec was
// decoded into for as long as the count lives. Caller holds storeMu.
func (inc *Incremental) absorb(rec *dataset.Record) *dataset.Record {
	c := inc.store.AppendCopy(rec)
	inc.counts[c.ToDomain()]++
	return c
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
		if !clean(rec) {
			inc.dirty = append(inc.dirty, int32(i))
		}
	}
	if n > inc.trained {
		inc.trained = n
	}
}

// Snapshot builds an Analysis over the records added so far without
// stopping ingestion. Under the training lock, the builders are caught
// up to the store and cloned; build then finishes the clones and
// classifies outside every lock but snapMu. The Analysis equals a batch
// one over the same records; only the cost differs.
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
	dirty := inc.dirty
	var bcs [NumStreams]*PipelineBuilder
	for s := range inc.b {
		bcs[s] = inc.b[s].Clone()
	}
	inc.trainMu.Unlock()
	return inc.build(view, bcs, dirty, counts, env)
}

// build is the body every Analysis is made by, over view, given bs,
// builders trained on its records in order, dirty, the records of view
// that are not clean, ascending, and counts, their receiver-domain
// popularity. Each substream's pipeline is finished warm against its
// own predecessor — per-shard EBRC and vote reuse even when a sibling
// shard changed. Then what the new records can change is redone: the
// records that are not clean and the new ones are classified, the
// previous snapshot's clean verdicts are copied, and its carried fold
// and clean index are extended by the new records. With nothing carried
// every record is new. Finishing, classifying and folding each fan out
// across GOMAXPROCS workers once the new records pay for more than one
// (widthFor), so a cold snapshot runs on every core and a warm one's
// short extension on the caller's goroutine: the sixteen substreams
// are independent lineages, a verdict depends only on its record, and
// the fold merges per-block sets whose merge is order-free. The clean
// index alone stays serial (extendFold). The caller holds snapMu, or
// inc is its own.
func (inc *Incremental) build(view dataset.Records, bs [NumStreams]*PipelineBuilder, dirty []int32, counts map[string]int, env *Environment) *Analysis {
	verdicts := make([]ClassifiedRecord, view.Len())
	m, fold, index := 0, (*PartialSet)(nil), (*cleanIndex)(nil)
	if last := inc.last; last != nil && last.env == env {
		m, fold, index = len(last.verdicts), last.fold, last.index
		copy(verdicts, last.verdicts)
	}
	// Copied, the previous verdicts are garbage unless a study still
	// reads them: this snapshot does not hold them while it classifies
	// and folds, when a collection would find two verdict slices live.
	inc.last = nil

	sp := &ShardedPipeline{Shards: make([]*Pipeline, NumStreams)}
	fanOut(widthFor(len(verdicts)-m), NumStreams, func(s int) {
		sp.Shards[s] = bs[s].FinishWarm(inc.lastPipes[s])
	})
	copy(inc.lastPipes[:], sp.Shards)

	// dirty[:k] are the records before m the previous snapshot did not
	// carry.
	k, _ := slices.BinarySearch(dirty, int32(m))
	classifyRange(sp, view, verdicts, dirty[:k], m)
	fold, index = extendFold(fold, index, env, view, verdicts, dirty[k:], m)
	inc.last = &carried{verdicts: verdicts, fold: fold, index: index, env: env}

	a := assemble(view, verdicts, sp, counts, env)
	a.carried, a.dirty, a.index = fold, dirty, index
	return a
}

// extendFold returns the carried fold of the records below
// len(verdicts) — every record's facts, the clean records' labels too —
// and the index of the clean ones, given fold and index, those of the
// records below m (nil for none), and dirty, the records from m on that
// are not clean. Neither fold nor index is ever written: a snapshot's
// study may be reading them. New ones start from copies of them, unless
// no record was added.
//
// The new records are folded in contiguous blocks, one set each, the
// first set starting from the copy of fold; the sets are then merged
// in block order, which gives the bytes of one fold since every
// collector's state is order-free. The index is extended beside them
// as one more task, serially: it numbers senders and receiver domains
// in first-seen order, which the next snapshot extends.
func extendFold(fold *PartialSet, index *cleanIndex, env *Environment, view dataset.Records, verdicts []ClassifiedRecord, dirty []int32, m int) (*PartialSet, *cleanIndex) {
	n := len(verdicts)
	if fold != nil && n == m {
		return fold, index
	}
	w := widthFor(n - m)
	parts := make([]*PartialSet, w)
	fanOut(w, 1+w, func(t int) {
		if t == 0 {
			index = extendIndex(index, view, verdicts, dirty, m)
			return
		}
		lo, hi := block(t-1, w, m, n)
		ps := NewPartialSet(env)
		ps.part = partBounced
		if t == 1 && fold != nil {
			ps.Merge(fold) // the same part: cannot fail
		}
		j, _ := slices.BinarySearch(dirty, int32(lo))
		for i := lo; i < hi; i++ {
			rec, c := view.At(i), &verdicts[i]
			ps.addFacts(rec, c)
			if j < len(dirty) && int(dirty[j]) == i {
				j++
				continue
			}
			ps.addLabels(rec, c)
		}
		parts[t-1] = ps
	})
	for _, ps := range parts[1:] {
		parts[0].Merge(ps) // the same part: cannot fail
	}
	return parts[0], index
}

// extendIndex returns the index of the clean records below
// len(verdicts), given index, that of the records below m (nil for
// none), and dirty, the records from m on that are not clean.
func extendIndex(index *cleanIndex, view dataset.Records, verdicts []ClassifiedRecord, dirty []int32, m int) *cleanIndex {
	b := index.builder(len(verdicts) - m - len(dirty))
	for i := m; i < len(verdicts); i++ {
		if len(dirty) > 0 && int(dirty[0]) == i {
			dirty = dirty[1:]
			continue
		}
		b.add(i, view.At(i), &verdicts[i])
	}
	return b.finish()
}

// DropCarried forgets what the last snapshot handed the next — its
// pipelines' EBRC counts, its clean verdicts, their fold and their
// index — so the next snapshot runs cold, as the first one after a
// restore does.
func (inc *Incremental) DropCarried() {
	inc.snapMu.Lock()
	inc.lastPipes, inc.last = [NumStreams]*Pipeline{}, nil
	inc.snapMu.Unlock()
}

// classifyRange fills out[i] = classify(view.At(i)) for every i in idx
// and every i from `from` on, in widthFor contiguous blocks of that
// work, each through its own ClassifyCtx (reused token buffers and
// verdict arenas — the zero-alloc batch path — and a memo, so a block
// matches each distinct (substream, line) once and looks up its
// repeats). Each slot depends only on its own record, so the output is
// identical for any worker count, and identical to per-record
// sp.ClassifyRecord.
func classifyRange(sp *ShardedPipeline, view dataset.Records, out []ClassifiedRecord, idx []int32, from int) {
	n := len(idx) + len(out) - from
	w := widthFor(n)
	fanOut(w, w, func(k int) {
		cx := sp.newMemoCtx()
		lo, hi := block(k, w, 0, n)
		for j := lo; j < hi; j++ {
			i := from + j - len(idx) // the j-th slot of the work
			if j < len(idx) {
				i = int(idx[j])
			}
			out[i] = cx.ClassifyRecord(view.At(i))
		}
	})
}

// perWorker is how many records a snapshot's fan-outs give each worker
// at least: fewer do not repay a goroutine and its own classify context
// or partial set.
const perWorker = 2048

// widthFor is how many workers a snapshot stage over n records takes:
// GOMAXPROCS, but no more than one per perWorker records, and one at
// least.
func widthFor(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/perWorker))
}

// block returns the k-th of w near-equal contiguous blocks of [lo, hi).
func block(k, w, lo, hi int) (int, int) {
	n := hi - lo
	return lo + k*n/w, lo + (k+1)*n/w
}

// fanOut runs do(t) for every task t in [0, tasks) on w goroutines, the
// caller's among them, each taking the lowest task not yet taken, and
// returns once all have run. With w ≤ 1 the tasks run in order on the
// caller's goroutine. It is the one fan-out of a snapshot.
func fanOut(w, tasks int, do func(t int)) {
	var next atomic.Int64
	run := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			do(t)
		}
	}
	var wg sync.WaitGroup
	for range min(w, tasks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// assemble wires a classified view into an Analysis — build's tail.
// counts is the view's receiver-domain popularity histogram, which the
// Analysis keeps.
func assemble(view dataset.Records, verdicts []ClassifiedRecord, p *ShardedPipeline, counts map[string]int, env *Environment) *Analysis {
	return &Analysis{
		Records:    view,
		Classified: verdicts,
		Pipeline:   p,
		Env:        env,
		counts:     counts,
		rank:       dataset.RankFromCounts(counts),
	}
}
