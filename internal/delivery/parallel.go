package delivery

import (
	"context"
	"sync"

	"repro/internal/clock"
	"repro/internal/dataset"
	"repro/internal/world"
)

// DeliverBatch delivers one scheduling batch (normally a study day)
// across workers goroutines and hands results to consume in submission
// order.
//
// Determinism: each worker owns the shards s with s % workers == its
// index and processes that subset of subs in slice order, so every
// shard sees its submissions in global sequence order no matter how
// many workers run. Cross-shard state — blocklist spam reports — is
// buffered per delivery and applied in a single
// ordered merge after the barrier, which also means all deliveries in
// a batch observe the blocklist as of batch start (spamtrap listings
// propagate at the next batch, like a real DNSBL's publication delay).
func (e *Engine) DeliverBatch(subs []*world.Submission, workers int, consume func(rec dataset.Record, sub *world.Submission, truth Truth)) {
	if len(subs) == 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > NumShards {
		workers = NumShards
	}
	results := make([]result, len(subs))
	if workers == 1 {
		for i, sub := range subs {
			results[i] = e.deliver(sub)
		}
	} else {
		shards := make([]int, len(subs))
		for i, sub := range subs {
			shards[i] = e.shardOf(sub.Msg.To.Domain)
		}
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for i, sub := range subs {
					if shards[i]%workers == wk {
						results[i] = e.deliver(sub)
					}
				}
			}(wk)
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
