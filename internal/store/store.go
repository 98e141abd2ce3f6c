// Package store is the durability layer behind bounced: a pluggable
// storage engine holding a segment-rotated write-ahead log of ingested
// records plus periodic checkpoints of opaque, named state sections
// (the analysis layer owns their encoding; the engine never looks
// inside). The lifecycle is
//
//	eng := store.Open(...)          // filesystem engine
//	cp, _ := eng.Recover()          // newest decodable checkpoint
//	eng.Tail(cp.Records, apply)     // replay records the checkpoint missed
//	eng.Append(batch)               // WAL ahead of every ack, from here on
//	eng.Checkpoint(cp)              // off the hot path, prunes the log
//
// The contract that makes crash recovery byte-identical: Append order
// is replay order (template mining is order-deterministic), a batch is
// one atomic unit (replay sees all of it or none of it), and a torn
// trailing write — the crash signature — is truncated away rather than
// failing recovery. See DESIGN.md §11.
package store

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// ErrTailTruncated reports that a tail read asked for records older
// than the oldest retained WAL segment — checkpoint pruning already
// discarded them. A replication follower that sees it must fall back
// to a full checkpoint fetch; a recovery that sees it has a data dir
// whose checkpoint and WAL disagree (operator error, not crash
// damage). Match with errors.Is.
var ErrTailTruncated = errors.New("store: tail truncated (records pruned below requested index)")

// ErrStopTail, returned by a ReadTail callback, ends the scan early
// without error — the unit that returned it still counts as delivered.
var ErrStopTail = errors.New("store: stop tail")

// RawBatch is one atomic WAL unit in wire form: a committed client
// batch (ID, one payload per record) or a single bare record (ID "",
// one payload). Payloads are the NDJSON bytes exactly as appended, so
// replication ships them without a decode/re-encode round trip. The
// payload slices stay valid, and unchanged, after the ReadTail callback
// returns: an engine never writes again to memory it handed out.
type RawBatch struct {
	ID       string
	Payloads [][]byte
}

// Batch is one atomic append: either a client batch with its
// idempotency key, or a single bare record (ID ""). Replay never
// surfaces a batch partially — a crash between its first record and
// its commit marker discards it, which is exactly right because the
// ack the client retries on was never sent.
//
// Payloads, when set, are the records' NDJSON bytes as another node's
// log already holds them — one per record, the canonical encoding
// (dataset.Record.AppendJSON) of the record beside it. The engine then
// stores those bytes instead of encoding the records again, which is
// how a standby's log comes to be its primary's byte for byte. The
// caller keeps the slices; Append copies what it needs.
type Batch struct {
	ID       string
	Records  []dataset.Record
	Payloads [][]byte
}

// checkPayloads is every engine's refusal of a batch whose payloads do
// not pair up with its records.
func (b *Batch) checkPayloads() error {
	if b.Payloads != nil && len(b.Payloads) != len(b.Records) {
		return fmt.Errorf("store: batch has %d payloads for %d records", len(b.Payloads), len(b.Records))
	}
	return nil
}

// Checkpoint is a point-in-time capture of everything above the WAL,
// valid at a record boundary: Sections reflect exactly the first
// Records entries of the log, so recovery replays the tail from there.
type Checkpoint struct {
	Records  uint64
	Sections map[string][]byte
}

// TailInfo summarizes a Tail replay.
type TailInfo struct {
	// Replayed is how many records the apply callback received.
	Replayed int
	// NextIndex is the total number of records in the log after the
	// scan — the index the next Append assigns.
	NextIndex uint64
	// Batches maps committed batch IDs whose records intersect the
	// replayed range to their record counts, so the caller can restore
	// idempotency state for batches newer than the checkpoint.
	Batches map[string]int
	// DroppedUncommitted counts records discarded from a trailing batch
	// whose commit marker never hit the disk (the batch was never
	// acked; the client will retry it).
	DroppedUncommitted int
	// TornTruncated reports that a torn or corrupt trailing frame was
	// cut from the last segment (or skipped, in read-only mode).
	TornTruncated bool
}

// Engine is the storage abstraction. The filesystem implementation
// lives in this package; the interface is what a SQLite/Postgres
// backend would implement instead. Methods are safe for concurrent use
// unless noted; the expected call order is Recover, Tail, then Append/
// Sync/Rotate/Checkpoint freely.
type Engine interface {
	// Recover returns the newest decodable checkpoint, or nil when none
	// exists. Corrupt checkpoints are skipped with a warning in favor of
	// older ones.
	Recover() (*Checkpoint, error)
	// Tail replays records [from, end-of-log) in append order. The
	// record pointer is only valid during the callback — copy to keep.
	// Must run once before the first Append (it establishes the next
	// record index and repairs a torn tail).
	Tail(from uint64, apply func(index uint64, rec *dataset.Record) error) (TailInfo, error)
	// Append writes one batch to the WAL as an atomic unit and flushes
	// it to the OS (surviving process death; Sync covers power loss).
	Append(b Batch) error
	// Sync makes previous appends durable per the engine's fsync mode.
	// Call before acking when batching fsyncs.
	Sync() error
	// Rotate seals the active WAL segment; the next append starts a
	// fresh one.
	Rotate() error
	// Checkpoint atomically persists cp and prunes WAL segments wholly
	// covered by the retained checkpoints.
	Checkpoint(cp *Checkpoint) error
	// ReadTail scans committed units [from, end-of-log) in append order
	// without mutating anything: no torn-tail truncation, no recovery
	// state. It is the replication read path — safe to call repeatedly
	// and concurrently with Append. The scan stops silently at the first
	// incomplete or damaged frame (the writer may still be flushing it)
	// and returns the index one past the last unit delivered. A unit may
	// straddle `from` when `from` is a mid-batch checkpoint boundary; the
	// callback receives the whole unit with its true start index and
	// skips the prefix itself. Returns ErrTailTruncated when `from`
	// predates the oldest retained segment. The callback may return
	// ErrStopTail to end the scan early without error.
	ReadTail(from uint64, apply func(start uint64, b RawBatch) error) (uint64, error)
	// Reset discards the entire log and all checkpoints and restarts the
	// record index at next — a replication follower resynchronizing onto
	// a fetched checkpoint. The engine is recovered (appendable) after.
	Reset(next uint64) error
	// Stats reports durability counters for /v1/stats and /metrics.
	Stats() Stats
	Close() error
}

// FsyncMode selects when the WAL calls fsync.
type FsyncMode int

const (
	// FsyncBatch syncs once per Sync call (per acked ingest batch) —
	// the default: group commit, bounded loss only on power failure.
	FsyncBatch FsyncMode = iota
	// FsyncAlways syncs inside every Append.
	FsyncAlways
	// FsyncOff never syncs; flush-to-OS still survives kill -9.
	FsyncOff
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "batch"
	}
}

// ParseFsyncMode parses the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return FsyncBatch, fmt.Errorf("store: unknown fsync mode %q (want always, batch, or off)", s)
}

// fsyncBounds are the fsync latency histogram bucket upper bounds in
// nanoseconds (2µs doubling to ~16ms, +Inf implied).
var fsyncBounds = func() []int64 {
	b := make([]int64, 14)
	for i := range b {
		b[i] = 2000 << i
	}
	return b
}()

// Stats is a point-in-time snapshot of engine counters. Counters are
// per-process (they reset on restart, like every bounced counter);
// gauges (Segments, WALBytes, NextIndex, LastCheckpoint*) describe the
// on-disk state.
type Stats struct {
	Segments        int
	WALBytes        int64
	NextIndex       uint64
	AppendedRecords uint64
	AppendedBatches uint64
	// Fsync is the WAL fsync latency histogram; its Count the fsyncs.
	Fsync                 stats.Histogram
	Checkpoints           uint64
	LastCheckpointRecords uint64
	LastCheckpointUnix    int64
	PrunedSegments        uint64
	// TailReads counts ReadTail calls; TailScannedBytes the log bytes
	// they decoded and TailShippedBytes the payload bytes they handed to
	// their callbacks. Shipped/scanned is the replication read path's
	// useful-work ratio: it falls when tail reads walk bytes nobody
	// asked for.
	TailReads        uint64
	TailScannedBytes uint64
	TailShippedBytes uint64
}
