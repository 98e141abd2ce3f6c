package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Mem is an in-memory Engine: the same contract as the filesystem
// store — append order is replay order, units are atomic, pruning
// below the oldest retained checkpoint — with none of the IO. It is
// the first proof the Engine interface holds beyond the filesystem,
// and what replication unit tests run against: fast, deterministic,
// and race-detector friendly.
type Mem struct {
	retain int // checkpoints kept (default 2, like the FS engine)

	mu        sync.Mutex
	recovered bool
	closed    bool
	oldest    uint64 // first record index still in the log
	next      uint64 // index the next Append assigns
	units     []memUnit
	cps       []*Checkpoint // newest first
	bytes     int64

	appendedRecords uint64
	appendedBatches uint64
	syncs           stats.Histogram
	checkpoints     uint64
	lastCPRecords   uint64
	lastCPUnix      int64
	prunedUnits     uint64

	tailReads   atomic.Uint64
	tailShipped atomic.Uint64
}

type memUnit struct {
	id       string
	start    uint64
	payloads [][]byte
}

// NewMem returns an empty in-memory engine.
func NewMem() *Mem {
	return &Mem{retain: defaultKeepCheckpoints, syncs: stats.NewHistogram(fsyncBounds)}
}

// Recover returns the newest checkpoint, or nil when none exists.
func (m *Mem) Recover() (*Checkpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.cps) == 0 {
		return nil, nil
	}
	return m.cps[0], nil
}

// Tail replays records [from, end) in append order; see Engine.
func (m *Mem) Tail(from uint64, apply func(index uint64, rec *dataset.Record) error) (TailInfo, error) {
	m.mu.Lock()
	units := m.units
	oldest := m.oldest
	next := m.next
	m.mu.Unlock()

	info := TailInfo{Batches: map[string]int{}, NextIndex: next}
	if from < oldest {
		return info, fmt.Errorf("replay needs records from %d but oldest retained index is %d: %w", from, oldest, ErrTailTruncated)
	}
	dec := &dataset.Decoder{}
	idx := oldest
	for _, u := range units {
		idx = u.start
		for _, p := range u.payloads {
			if idx >= from {
				var rec dataset.Record
				if err := dec.Decode(p, &rec); err != nil {
					return info, fmt.Errorf("store: record %d fails to decode: %w", idx, err)
				}
				if err := apply(idx, &rec); err != nil {
					return info, err
				}
				info.Replayed++
			}
			idx++
		}
		if u.id != "" && idx > from {
			info.Batches[u.id] = len(u.payloads)
		}
	}
	m.mu.Lock()
	m.recovered = true
	m.mu.Unlock()
	return info, nil
}

// ReadTail scans committed units [from, end) in append order; see
// Engine. The in-memory log has no torn tails, so the only early stops
// are ErrStopTail and pruning (ErrTailTruncated).
func (m *Mem) ReadTail(from uint64, apply func(start uint64, b RawBatch) error) (uint64, error) {
	m.tailReads.Add(1)
	m.mu.Lock()
	units := m.units
	oldest := m.oldest
	m.mu.Unlock()

	if from < oldest {
		return from, fmt.Errorf("tail from %d predates oldest retained index %d: %w", from, oldest, ErrTailTruncated)
	}
	idx := from
	for _, u := range units {
		end := u.start + uint64(len(u.payloads))
		if end <= from {
			continue
		}
		var n uint64
		for _, p := range u.payloads {
			n += uint64(len(p))
		}
		m.tailShipped.Add(n)
		if err := apply(u.start, RawBatch{ID: u.id, Payloads: u.payloads}); err != nil {
			if errors.Is(err, ErrStopTail) {
				return end, nil
			}
			return idx, err
		}
		idx = end
	}
	return idx, nil
}

func (m *Mem) writableLocked() error {
	if m.closed {
		return errors.New("store: closed")
	}
	if !m.recovered {
		return errors.New("store: Tail must run before Append")
	}
	return nil
}

// Append stores one batch as an atomic unit.
func (m *Mem) Append(b Batch) error {
	if len(b.Records) == 0 {
		return nil
	}
	if err := b.checkPayloads(); err != nil {
		return err
	}
	payloads := make([][]byte, len(b.Records))
	var n int64
	for i := range b.Records {
		if b.Payloads != nil {
			payloads[i] = bytes.Clone(b.Payloads[i])
		} else {
			payloads[i] = b.Records[i].AppendJSON(nil)
		}
		n += int64(len(payloads[i]))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.writableLocked(); err != nil {
		return err
	}
	m.units = append(m.units, memUnit{id: b.ID, start: m.next, payloads: payloads})
	m.next += uint64(len(payloads))
	m.bytes += n
	m.appendedRecords += uint64(len(payloads))
	if b.ID != "" {
		m.appendedBatches++
	}
	return nil
}

// Sync is durability-free by construction; it only counts.
func (m *Mem) Sync() error {
	m.mu.Lock()
	m.syncs.Observe(0)
	m.mu.Unlock()
	return nil
}

// Rotate is a no-op: the in-memory log has no segments.
func (m *Mem) Rotate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writableLocked()
}

// Checkpoint retains cp (newest retain kept) and prunes units wholly
// below the oldest retained checkpoint.
func (m *Mem) Checkpoint(cp *Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("store: closed")
	}
	// Validate the round trip so a section the codec cannot carry fails
	// here, like the filesystem engine's write would.
	cp2, err := decodeCheckpoint(encodeCheckpoint(cp))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	m.cps = append([]*Checkpoint{cp2}, m.cps...)
	if len(m.cps) > m.retain {
		m.cps = m.cps[:m.retain]
	}
	m.checkpoints++
	m.lastCPRecords = cp.Records
	m.lastCPUnix = time.Now().Unix()

	below := m.cps[len(m.cps)-1].Records
	for len(m.units) > 0 {
		u := m.units[0]
		end := u.start + uint64(len(u.payloads))
		if end > below {
			break
		}
		for _, p := range u.payloads {
			m.bytes -= int64(len(p))
		}
		m.units = m.units[1:]
		m.prunedUnits++
		m.oldest = end
	}
	if len(m.units) > 0 {
		m.oldest = m.units[0].start
	}
	return nil
}

// Reset discards the log and all checkpoints and restarts at next.
func (m *Mem) Reset(next uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("store: closed")
	}
	m.units = nil
	m.cps = nil
	m.bytes = 0
	m.oldest = next
	m.next = next
	m.recovered = true
	return nil
}

// Stats reports engine counters. A sync costs nothing here, so every
// one is a zero in the fsync histogram.
func (m *Mem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	shipped := m.tailShipped.Load()
	return Stats{
		Segments:              len(m.units),
		WALBytes:              m.bytes,
		NextIndex:             m.next,
		AppendedRecords:       m.appendedRecords,
		AppendedBatches:       m.appendedBatches,
		Fsync:                 m.syncs.Clone(),
		Checkpoints:           m.checkpoints,
		LastCheckpointRecords: m.lastCPRecords,
		LastCheckpointUnix:    m.lastCPUnix,
		PrunedSegments:        m.prunedUnits,
		TailReads:             m.tailReads.Load(),
		// Units below the replay point are skipped by index; no payload
		// byte is read that is not shipped.
		TailScannedBytes: shipped,
		TailShippedBytes: shipped,
	}
}

// Close marks the engine closed; the log stays readable for Stats.
func (m *Mem) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}

var _ Engine = (*Mem)(nil)
var _ Engine = (*FS)(nil)
