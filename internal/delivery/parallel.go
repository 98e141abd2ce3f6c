package delivery

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/world"
)

// DeliverBatch delivers one scheduling batch (normally a study day)
// across workers goroutines and hands results to consume in submission
// order.
//
// Determinism: the batch's submissions are grouped by receiver-domain
// shard, in slice order within each shard, and each worker claims
// whole shards from a shared cursor, largest first, so the Zipf head's
// shards start early and the small ones fill in behind them. A shard
// is delivered by one goroutine in slice order, so every shard sees its
// submissions in global sequence order no matter how many workers run
// or which worker claims it. Cross-shard state — blocklist spam
// reports — is buffered per delivery and applied in a single ordered
// merge after the barrier, which also means all deliveries in a batch
// observe the blocklist as of batch start (spamtrap listings propagate
// at the next batch, like a real DNSBL's publication delay).
func (e *Engine) DeliverBatch(subs []*world.Submission, workers int, consume func(rec dataset.Record, sub *world.Submission, truth Truth)) {
	if len(subs) == 0 {
		return
	}
	results := make([]result, len(subs))
	if workers <= 1 {
		for i, sub := range subs {
			results[i] = e.deliver(sub)
		}
	} else {
		byShard, order := e.groupByShard(subs)
		workers = min(workers, len(order))
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(workers)
		for wk := 0; wk < workers; wk++ {
			go func() {
				defer wg.Done()
				for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
					for _, i := range byShard[order[k]] {
						results[i] = e.deliver(subs[i])
					}
				}
			}()
		}
		wg.Wait()
	}
	// Ordered merge: cross-shard state mutates in global sequence
	// order regardless of which worker produced each record.
	for i := range results {
		res := &results[i]
		e.applyReports(res.reports)
		if consume != nil {
			consume(res.rec, subs[i], res.truth)
		}
	}
}

// groupByShard returns the indices of subs grouped by shard, in slice
// order within each shard, and the non-empty shards largest first
// (ties by shard number).
func (e *Engine) groupByShard(subs []*world.Submission) (byShard [NumShards][]int, order []int) {
	for i, sub := range subs {
		s := e.shardOf(sub.Msg.To.Domain)
		byShard[s] = append(byShard[s], i)
	}
	for s := range byShard {
		if len(byShard[s]) > 0 {
			order = append(order, s)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return len(byShard[order[a]]) > len(byShard[order[b]]) })
	return byShard, order
}

// ParallelRun delivers the whole 15-month workload in chronological
// order across workers goroutines, passing each record to consume in
// submission order. Workload generation stays serial (it mutates the
// world); each day's submissions fan out to the shard workers and
// merge back deterministically, so any worker count produces a
// byte-identical dataset for the same seed.
func (e *Engine) ParallelRun(workers int, consume func(rec dataset.Record, sub *world.Submission, truth Truth)) {
	e.ParallelRunCtx(context.Background(), workers, consume)
}

// ParallelRunCtx is ParallelRun with cancellation: the run stops at
// the next day-batch boundary once ctx is done (a day is well under a
// second of wall time at any configured scale, so Ctrl-C feels
// immediate) and returns ctx's error. Every record consumed before
// cancellation is exactly the record an uncancelled run would have
// produced — stopping early never reorders or alters the prefix.
func (e *Engine) ParallelRunCtx(ctx context.Context, workers int, consume func(rec dataset.Record, sub *world.Submission, truth Truth)) error {
	for day := 0; day < clock.StudyDays; day++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.DeliverBatch(e.W.EmailsForDay(day), workers, consume)
	}
	return nil
}

// Run delivers the whole 15-month workload single-threaded; it is
// ParallelRun with one worker and shares the same batch semantics.
func (e *Engine) Run(consume func(rec dataset.Record, sub *world.Submission, truth Truth)) {
	e.ParallelRun(1, consume)
}
