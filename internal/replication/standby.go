package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// NodeStatus is what GET /v1/repl/status reports — the router's probe
// target and the failover script's assertion surface.
type NodeStatus struct {
	Role      string `json:"role"` // "primary" or "standby"
	Epoch     uint64 `json:"epoch"`
	NextIndex uint64 `json:"next_index"`
	Consumed  uint64 `json:"consumed"`
}

// Applier is the standby side of the server: replication hands it
// whole WAL units in primary order and it folds them exactly as local
// ingest would — same WAL-first ordering, same dedup registration —
// so a promoted standby's report is byte-identical to the primary's.
type Applier interface {
	// AppliedIndex is how far the local log reaches; the next poll asks
	// the primary for records from here.
	AppliedIndex() uint64
	// ApplyBatch folds one unit whose records span
	// [b.Start, b.Start+len(b.Payloads)). A unit straddling the applied
	// index (a mid-batch checkpoint boundary) is trimmed by the applier;
	// a wholly-applied unit is a no-op.
	ApplyBatch(u *Unit) error
	// ResetTo discards all local state and restores from a checkpoint
	// fetched from the primary — the full-resync path when the WAL tail
	// is pruned past our offset.
	ResetTo(cp *store.Checkpoint) error
	// Promote flips the node to primary under the given epoch. It
	// returns false when the node already promoted.
	Promote(epoch uint64, reason string) bool
}

// StandbyConfig configures a sync loop.
type StandbyConfig struct {
	// PrimaryURL is the primary's base URL, e.g. http://10.0.0.1:8425.
	PrimaryURL string
	// ID names this standby in the primary's registry (and in
	// X-Batch-Id-free progress reports). Required.
	ID string
	// PollWait is how long the primary may hold an empty long-poll
	// (default 2s). Lag stays ~one RTT regardless; this only bounds
	// idle connection turnover.
	PollWait time.Duration
	// RetryInterval paces reconnect attempts after a failed poll
	// (default 200ms).
	RetryInterval time.Duration
	// FailoverTimeout promotes this standby automatically when the
	// primary has been unreachable for this long. 0 means manual
	// promotion only.
	FailoverTimeout time.Duration
	// Logf receives sync-loop events; default log.Printf.
	Logf func(format string, args ...any)
}

// Standby drives one node's sync loop against a primary.
type Standby struct {
	cfg     StandbyConfig
	applier Applier
	client  *http.Client
	logf    func(string, ...any)

	mu       sync.Mutex
	promoted bool
	cancel   context.CancelFunc // in-flight poll, cut on Promote

	primaryNext  atomic.Uint64 // log end the last poll reported
	primaryEpoch atomic.Uint64
	lastOKNanos  atomic.Int64
	polls        atomic.Uint64
	unitsApplied atomic.Uint64
	resyncs      atomic.Uint64
	pollErrs     atomic.Uint64
}

// SyncStatus is the standby-side /v1/stats block.
type SyncStatus struct {
	Primary        string  `json:"primary"`
	ID             string  `json:"id"`
	PrimaryNext    uint64  `json:"primary_next_index"`
	PrimaryEpoch   uint64  `json:"primary_epoch"`
	LagRecords     uint64  `json:"lag_records"`
	Polls          uint64  `json:"polls"`
	PollErrors     uint64  `json:"poll_errors"`
	UnitsApplied   uint64  `json:"units_applied"`
	Resyncs        uint64  `json:"resyncs"`
	LastOKAgoSecs  float64 `json:"last_ok_ago_seconds"`
	FailoverAfterS float64 `json:"failover_after_seconds"`
}

// errResync asks the loop to fetch a full checkpoint: the primary
// pruned past our offset (410) or disowns our position (409).
var errResync = errors.New("replication: resync required")

// maxBatch caps records per poll response so a standby catching up
// streams in bounded chunks.
const maxBatch = 8192

// NewStandby wires a sync loop; call Run to start it.
func NewStandby(cfg StandbyConfig, applier Applier) (*Standby, error) {
	if cfg.PrimaryURL == "" {
		return nil, errors.New("replication: standby needs a primary URL")
	}
	if _, err := url.Parse(cfg.PrimaryURL); err != nil {
		return nil, fmt.Errorf("replication: primary URL: %w", err)
	}
	if cfg.ID == "" {
		return nil, errors.New("replication: standby needs an ID")
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 2 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 200 * time.Millisecond
	}
	// The client has no Timeout: per-request deadlines derive from
	// PollWait.
	st := &Standby{cfg: cfg, applier: applier, client: &http.Client{}, logf: cfg.Logf}
	if st.logf == nil {
		st.logf = log.Printf
	}
	st.lastOKNanos.Store(time.Now().UnixNano())
	return st, nil
}

// Run polls the primary until ctx ends or the standby promotes. A sync
// error starts the failover clock; FailoverTimeout of silence promotes
// (when enabled). Returns nil on promotion or ctx cancellation.
func (st *Standby) Run(ctx context.Context) error {
	for ctx.Err() == nil && !st.Promoted() {
		err := st.syncOnce(ctx)
		switch {
		case err == nil:
			st.lastOKNanos.Store(time.Now().UnixNano())
			continue // long-poll paces us; re-poll immediately
		case errors.Is(err, errResync):
			st.resyncs.Add(1)
			if rerr := st.resync(ctx); rerr != nil {
				st.pollErrs.Add(1)
				st.logf("replication: resync from %s failed: %v", st.cfg.PrimaryURL, rerr)
			} else {
				st.lastOKNanos.Store(time.Now().UnixNano())
				continue
			}
		case errors.Is(err, context.Canceled):
			continue // promotion or shutdown cut the poll
		default:
			st.pollErrs.Add(1)
			st.logf("replication: poll %s: %v", st.cfg.PrimaryURL, err)
		}
		silent := time.Since(time.Unix(0, st.lastOKNanos.Load()))
		if st.cfg.FailoverTimeout > 0 && silent >= st.cfg.FailoverTimeout {
			st.Promote(fmt.Sprintf("primary %s unreachable for %s", st.cfg.PrimaryURL, silent.Round(time.Millisecond)))
			return nil
		}
		select {
		case <-ctx.Done():
		case <-time.After(st.cfg.RetryInterval):
		}
	}
	return nil
}

// pollCtx derives a cancellable per-request context and parks its
// cancel where Promote can reach it, so a manual promotion never waits
// out a long poll.
func (st *Standby) pollCtx(ctx context.Context, budget time.Duration) (context.Context, func()) {
	rctx, cancel := context.WithTimeout(ctx, budget)
	st.mu.Lock()
	st.cancel = cancel
	st.mu.Unlock()
	return rctx, func() {
		st.mu.Lock()
		st.cancel = nil
		st.mu.Unlock()
		cancel()
	}
}

func (st *Standby) syncOnce(ctx context.Context) error {
	from := st.applier.AppliedIndex()
	u := fmt.Sprintf("%s%s?from=%d&id=%s&applied=%d&wait=%s&max=%d",
		st.cfg.PrimaryURL, PathWAL, from, url.QueryEscape(st.cfg.ID), from,
		st.cfg.PollWait, maxBatch)
	// The budget covers a held long-poll plus a full maxBatch transfer.
	rctx, done := st.pollCtx(ctx, st.cfg.PollWait+30*time.Second)
	defer done()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	st.polls.Add(1)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone, http.StatusConflict:
		return errResync
	default:
		return fmt.Errorf("primary returned %s", resp.Status)
	}
	tr, err := NewTailReader(resp.Body)
	if err != nil {
		return err
	}
	if tr.From != from {
		return fmt.Errorf("primary streamed from %d, asked %d", tr.From, from)
	}
	for {
		unit, end, err := tr.Next()
		if err != nil {
			if errors.Is(err, ErrTornStream) {
				// The primary died mid-send; complete units already applied
				// stand, the rest re-arrives from whoever answers next.
				return fmt.Errorf("%w (applied %d complete units)", err, st.unitsApplied.Load())
			}
			return err
		}
		if end != nil {
			st.primaryNext.Store(end.LogEnd)
			st.primaryEpoch.Store(end.Epoch)
			return nil
		}
		if err := st.applier.ApplyBatch(unit); err != nil {
			return fmt.Errorf("applying unit at %d: %w", unit.Start, err)
		}
		st.unitsApplied.Add(1)
	}
}

// resync fetches the primary's current checkpoint and restores onto
// it — the catch-up path when the incremental tail is gone.
func (st *Standby) resync(ctx context.Context) error {
	rctx, done := st.pollCtx(ctx, 2*time.Minute)
	defer done()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, st.cfg.PrimaryURL+PathCheckpoint, nil)
	if err != nil {
		return err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("primary returned %s", resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	cp, err := store.DecodeCheckpoint(blob)
	if err != nil {
		return err
	}
	if err := st.applier.ResetTo(cp); err != nil {
		return err
	}
	st.logf("replication: resynced onto checkpoint at %d records from %s", cp.Records, st.cfg.PrimaryURL)
	return nil
}

// Promote flips the node to primary at epoch primaryEpoch+1, cutting
// any in-flight poll. Idempotent; reports whether this call won.
func (st *Standby) Promote(reason string) bool {
	st.mu.Lock()
	if st.promoted {
		st.mu.Unlock()
		return false
	}
	st.promoted = true
	cancel := st.cancel
	st.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return st.applier.Promote(st.primaryEpoch.Load()+1, reason)
}

// Promoted reports whether the sync loop has ended in promotion.
func (st *Standby) Promoted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.promoted
}

// Status snapshots the sync loop for /v1/stats.
func (st *Standby) Status() SyncStatus {
	applied := st.applier.AppliedIndex()
	next := st.primaryNext.Load()
	lag := uint64(0)
	if next > applied {
		lag = next - applied
	}
	return SyncStatus{
		Primary:        st.cfg.PrimaryURL,
		ID:             st.cfg.ID,
		PrimaryNext:    next,
		PrimaryEpoch:   st.primaryEpoch.Load(),
		LagRecords:     lag,
		Polls:          st.polls.Load(),
		PollErrors:     st.pollErrs.Load(),
		UnitsApplied:   st.unitsApplied.Load(),
		Resyncs:        st.resyncs.Load(),
		LastOKAgoSecs:  time.Since(time.Unix(0, st.lastOKNanos.Load())).Seconds(),
		FailoverAfterS: st.cfg.FailoverTimeout.Seconds(),
	}
}
