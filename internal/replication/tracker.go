package replication

import (
	"sort"
	"sync"
	"time"
)

// Tracker is the primary's view of its replica set. Every standby WAL
// poll reports how far that standby has applied; every local append
// advances the log end. Two kinds of waiters park here:
//
//   - standby long-polls (WaitNext): "wake me when the log grows past
//     my offset" — this is what keeps replication lag at ~one RTT
//     instead of one poll interval;
//   - semi-sync acks (WaitApplied): "wake me when n standbys have
//     applied through index i" — this is what makes "zero acked
//     records lost" a guarantee instead of a bet. An ingest ack only
//     leaves the primary after its batch is on enough standbys.
//
// Waiters use a broadcast channel swapped on every advance; both waits
// are O(wakeups), not O(waiters × polls).
type Tracker struct {
	mu       sync.Mutex
	next     uint64 // log end: index the next append assigns
	standbys map[string]*standbyState
	wake     chan struct{}
}

type standbyState struct {
	applied  uint64
	lastSeen time.Time
}

// StandbyInfo is one standby's registry entry for /v1/stats.
type StandbyInfo struct {
	ID         string  `json:"id"`
	Applied    uint64  `json:"applied"`
	LagRecords uint64  `json:"lag_records"`
	AgoSeconds float64 `json:"last_seen_ago_seconds"`
}

// staleAfter drops a standby from the registry when it has not polled
// for this long — a promoted or dead standby must stop counting toward
// semi-sync acks, or every ingest would block until timeout.
const staleAfter = 10 * time.Second

// NewTracker returns a tracker with the log end at next.
func NewTracker(next uint64) *Tracker {
	return &Tracker{next: next, standbys: map[string]*standbyState{}, wake: make(chan struct{})}
}

func (t *Tracker) wakeLocked() {
	close(t.wake)
	t.wake = make(chan struct{})
}

// Advance moves the log end to next (monotone) and wakes waiters.
func (t *Tracker) Advance(next uint64) {
	t.mu.Lock()
	if next > t.next {
		t.next = next
		t.wakeLocked()
	}
	t.mu.Unlock()
}

// Observe records a standby's progress report and wakes ack waiters.
func (t *Tracker) Observe(id string, applied uint64) {
	if id == "" {
		return
	}
	t.mu.Lock()
	st := t.standbys[id]
	if st == nil {
		st = &standbyState{}
		t.standbys[id] = st
	}
	if applied > st.applied {
		st.applied = applied
	}
	st.lastSeen = time.Now()
	t.wakeLocked()
	t.mu.Unlock()
}

// Reset forces the log end to next, downward included — the standby
// full-resync path, where the local log is rebuilt from a checkpoint
// whose boundary may sit below a diverged local tail.
func (t *Tracker) Reset(next uint64) {
	t.mu.Lock()
	t.next = next
	t.wakeLocked()
	t.mu.Unlock()
}

// WaitNext blocks until the log end exceeds from (returning the new
// end) or the timeout lapses (returning the current end). This is the
// standby long-poll.
func (t *Tracker) WaitNext(from uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		next, wake := t.next, t.wake
		t.mu.Unlock()
		if next > from {
			return next
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return next
		}
		tm := time.NewTimer(remain)
		select {
		case <-wake:
			tm.Stop()
		case <-tm.C:
		}
	}
}

// appliedByLocked returns how many live standbys have applied through
// index, pruning stale entries on the way.
func (t *Tracker) appliedByLocked(index uint64, now time.Time) int {
	n := 0
	for id, st := range t.standbys {
		if now.Sub(st.lastSeen) > staleAfter {
			delete(t.standbys, id)
			continue
		}
		if st.applied >= index {
			n++
		}
	}
	return n
}

// WaitApplied blocks until at least n standbys report applied >= index
// or the timeout lapses. It returns whether the quorum was reached —
// the semi-sync ack gate.
func (t *Tracker) WaitApplied(index uint64, n int, timeout time.Duration) bool {
	if n <= 0 {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		now := time.Now()
		t.mu.Lock()
		got := t.appliedByLocked(index, now)
		wake := t.wake
		t.mu.Unlock()
		if got >= n {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		tm := time.NewTimer(remain)
		select {
		case <-wake:
			tm.Stop()
		case <-tm.C:
		}
	}
}

// Snapshot lists the live standbys (stale ones pruned) sorted by ID,
// plus the max lag in records — the /v1/stats and /metrics view.
func (t *Tracker) Snapshot() (infos []StandbyInfo, maxLag uint64) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, st := range t.standbys {
		if now.Sub(st.lastSeen) > staleAfter {
			delete(t.standbys, id)
			continue
		}
		lag := uint64(0)
		if t.next > st.applied {
			lag = t.next - st.applied
		}
		if lag > maxLag {
			maxLag = lag
		}
		infos = append(infos, StandbyInfo{
			ID:         id,
			Applied:    st.applied,
			LagRecords: lag,
			AgoSeconds: now.Sub(st.lastSeen).Seconds(),
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos, maxLag
}
