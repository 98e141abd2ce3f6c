package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Filesystem engine. On-disk layout under Dir:
//
//	wal/seg-<first-index hex>.wal    segment-rotated record log
//	checkpoint/cp-<records hex>.ckpt atomic state snapshots
//
// A segment is a 13-byte header (magic "BWAL", version, first record
// index) followed by frames (frame.go). Kind 1 is one record (its NDJSON wire
// form — the same bytes HTTP ingest carries, decoded on replay by the
// fast-path decoder); kinds 2/3 bracket a client batch with its
// idempotency key, making the batch atomic under crash replay. A batch
// group never spans segments. Frames are flushed to the OS before
// Append returns (kill -9 loses nothing acked); fsync placement is the
// FsyncMode's call.
//
// Checkpoints are written tmp → fsync → rename → dir fsync, so a crash
// leaves either the old set or the new set, never a half file; a
// whole-file CRC catches torn tmp leftovers and bit rot. The newest
// KeepCheckpoints stay; WAL segments wholly below the oldest retained
// checkpoint are pruned.
const (
	walMagic    = "BWAL"
	ckptMagic   = "BCKP"
	walVersion  = 1
	ckptVersion = 1

	frameRecord byte = 1
	frameBegin  byte = 2
	frameCommit byte = 3

	segHeaderSize = 4 + 1 + 8

	defaultSegmentBytes    = 64 << 20
	defaultKeepCheckpoints = 2

	// markEveryBytes spaces the offset index: a unit boundary becomes a
	// mark once it lies at least this far past the segment's previous
	// mark, so a tail read walks at most this much plus one unit before
	// it reaches its replay point, for 16 B of memory per 64 KiB of
	// retained WAL.
	markEveryBytes = 64 << 10
)

// tailMark is one entry of the in-memory offset index ReadTail seeks
// by: the unit whose first record has index first begins at byte off
// of its segment. Marks are a cache of what a walk from the segment
// header would find, nothing more — nothing is written to disk, and a
// missing mark only means the walk starts earlier.
type tailMark struct {
	first uint64
	off   int64
}

// FSOptions configures Open.
type FSOptions struct {
	Dir string
	// SegmentBytes rotates the WAL once the active segment reaches this
	// size (default 64 MiB). A batch group is never split: the segment
	// that starts it finishes it.
	SegmentBytes int64
	Mode         FsyncMode
	// ReadOnly opens the store for offline analysis: no truncation of
	// torn tails, no appends, no checkpoints.
	ReadOnly bool
	// KeepCheckpoints retains the newest N checkpoints (default 2), so
	// a checkpoint corrupted in flight still leaves a fallback.
	KeepCheckpoints int
	// Logf receives recovery warnings (torn tails, dropped batches,
	// skipped checkpoints); default log.Printf.
	Logf func(format string, args ...any)
}

// FS is the filesystem Engine.
type FS struct {
	opts    FSOptions
	walDir  string
	ckptDir string
	logf    func(format string, args ...any)

	mu        sync.Mutex
	recovered bool // Tail ran; nextIndex is authoritative
	closed    bool
	nextIndex uint64
	seg       *os.File
	segW      *bufio.Writer
	segBytes  int64
	segments  int
	walBytes  int64
	scratch   []byte
	enc       []byte // Append's one record encoding buffer, kept
	// syncErr is the first fsync failure. After one the kernel may have
	// marked the lost pages clean, so a later fsync can succeed over
	// them; the engine therefore refuses every append and sync from then
	// on (fail-stop) rather than ack on the strength of one that did.
	syncErr error
	fsync   func(*os.File) error // (*os.File).Sync, but for tests
	// The active segment's first record index and the offset of its
	// newest mark (its header while it has none): Append's half of the
	// offset index.
	segFirst   uint64
	segMarkOff int64

	// markMu guards marks. It is not mu, so a tail read never queues
	// behind an fsync; where both are held, mu is taken first.
	markMu sync.Mutex
	// marks is the offset index: per segment (keyed by its first record
	// index) the marks in ascending order. Only the engine that writes
	// the directory keeps one — every removal or truncation of its files
	// goes through it and drops the marks in step — so the map is nil on
	// a read-only engine and after Close.
	marks map[uint64][]tailMark
	// tip is one more mark, outside the spacing rule: the newest unit
	// appended to segment tipSeg (off 0: none). A caught-up standby asks
	// for exactly that unit, and seeks to it instead of walking up to
	// markEveryBytes of units it already has.
	tip    tailMark
	tipSeg uint64

	tailReads   atomic.Uint64
	tailScanned atomic.Uint64
	tailShipped atomic.Uint64

	appendedRecords uint64
	appendedBatches uint64
	fsyncHist       stats.Histogram
	checkpoints     uint64
	lastCPRecords   uint64
	lastCPUnix      int64
	pruned          uint64

	cpMu sync.Mutex // serializes checkpoint file IO, off the append path
}

// Open opens (creating, unless ReadOnly) the store directory. Call
// Recover and Tail before the first Append.
func Open(opts FSOptions) (*FS, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty data dir")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.KeepCheckpoints <= 0 {
		opts.KeepCheckpoints = defaultKeepCheckpoints
	}
	f := &FS{
		opts:      opts,
		walDir:    filepath.Join(opts.Dir, "wal"),
		ckptDir:   filepath.Join(opts.Dir, "checkpoint"),
		logf:      opts.Logf,
		fsyncHist: stats.NewHistogram(fsyncBounds),
		fsync:     (*os.File).Sync,
	}
	if f.logf == nil {
		f.logf = log.Printf
	}
	if opts.ReadOnly {
		if _, err := os.Stat(opts.Dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		return f, nil
	}
	f.marks = map[uint64][]tailMark{}
	for _, d := range []string{opts.Dir, f.walDir, f.ckptDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return f, nil
}

// Mode reports the engine's fsync mode.
func (f *FS) Mode() FsyncMode { return f.opts.Mode }

type segInfo struct {
	path  string
	first uint64
	size  int64
}

func (f *FS) listSegments() ([]segInfo, error) {
	ents, err := os.ReadDir(f.walDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"), 16, 64)
		if err != nil {
			f.logf("store: ignoring unparseable segment name %q", name)
			continue
		}
		fi, err := e.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between ReadDir and stat
			}
			return nil, err
		}
		segs = append(segs, segInfo{path: filepath.Join(f.walDir, name), first: first, size: fi.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

type cpInfo struct {
	path    string
	records uint64
	mtime   time.Time
}

func (f *FS) listCheckpoints() ([]cpInfo, error) {
	ents, err := os.ReadDir(f.ckptDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var cps []cpInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "cp-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		records, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "cp-"), ".ckpt"), 16, 64)
		if err != nil {
			f.logf("store: ignoring unparseable checkpoint name %q", name)
			continue
		}
		fi, err := e.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned between ReadDir and stat
			}
			return nil, err
		}
		cps = append(cps, cpInfo{path: filepath.Join(f.ckptDir, name), records: records, mtime: fi.ModTime()})
	}
	// Newest first.
	sort.Slice(cps, func(i, j int) bool { return cps[i].records > cps[j].records })
	return cps, nil
}

// Recover returns the newest checkpoint that decodes cleanly.
func (f *FS) Recover() (*Checkpoint, error) {
	cps, err := f.listCheckpoints()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, ci := range cps {
		b, err := os.ReadFile(ci.path)
		if err != nil {
			f.logf("store: skipping checkpoint %s: %v", filepath.Base(ci.path), err)
			continue
		}
		cp, err := decodeCheckpoint(b)
		if err != nil {
			f.logf("store: skipping corrupt checkpoint %s: %v", filepath.Base(ci.path), err)
			continue
		}
		f.mu.Lock()
		f.lastCPRecords = cp.Records
		f.lastCPUnix = ci.mtime.Unix()
		f.mu.Unlock()
		return cp, nil
	}
	return nil, nil
}

// Tail replays records [from, end) in append order, repairing a torn
// tail on the way (truncated in place unless ReadOnly). It must run
// before the first Append even when from already covers the whole log.
func (f *FS) Tail(from uint64, apply func(index uint64, rec *dataset.Record) error) (TailInfo, error) {
	info := TailInfo{Batches: map[string]int{}}
	segs, err := f.listSegments()
	if err != nil {
		return info, fmt.Errorf("store: %w", err)
	}
	var walBytes int64
	for _, s := range segs {
		walBytes += s.size
	}
	idx := from
	if len(segs) > 0 {
		if from < segs[0].first {
			return info, fmt.Errorf("replay needs records from %d but oldest segment starts at %d (over-pruned wal): %w", from, segs[0].first, ErrTailTruncated)
		}
		dec := &dataset.Decoder{}
		scanned := false
		for k, s := range segs {
			// A segment is skippable when every record it holds is below
			// the replay point, i.e. the next segment starts at or below it.
			if !scanned && k+1 < len(segs) && segs[k+1].first <= from {
				continue
			}
			if !scanned {
				idx = s.first
				scanned = true
			} else if s.first != idx {
				return info, fmt.Errorf("store: segment %s starts at %d, want %d (gap)", filepath.Base(s.path), s.first, idx)
			}
			cut, err := f.scanSegment(s, k == len(segs)-1, from, &idx, &info, dec, apply)
			if err != nil {
				return info, err
			}
			if cut >= 0 {
				if !f.opts.ReadOnly {
					if err := os.Truncate(s.path, cut); err != nil {
						return info, fmt.Errorf("store: truncating torn tail: %w", err)
					}
					walBytes -= s.size - cut
				}
			}
		}
	}
	info.NextIndex = idx
	f.mu.Lock()
	f.recovered = true
	f.nextIndex = idx
	f.segments = len(segs)
	f.walBytes = walBytes
	f.mu.Unlock()
	return info, nil
}

// noteUnit offers the start of a complete unit to the offset index:
// Append's, recovery's and a tail read's shared way of writing a mark.
// *last is the caller's own record of the newest mark it passed in
// segment seg, so the usual answer — not markEveryBytes past it yet —
// takes no lock.
func (f *FS) noteUnit(last *int64, seg uint64, m tailMark) {
	if m.off-*last < markEveryBytes {
		return
	}
	*last = m.off
	f.markMu.Lock()
	defer f.markMu.Unlock()
	if f.marks == nil {
		return
	}
	ms := f.marks[seg]
	if n := len(ms); n > 0 && m.off-ms[n-1].off < markEveryBytes {
		return // another walk has already indexed this stretch
	}
	f.marks[seg] = append(ms, m)
}

// markFor returns the newest mark of segment seg whose unit starts at
// or below from — the tip if it qualifies, the segment header when
// there is none. Caller holds markMu.
func (f *FS) markFor(seg, from uint64) tailMark {
	if f.tip.off != 0 && f.tipSeg == seg && f.tip.first <= from {
		return f.tip
	}
	ms := f.marks[seg]
	i := sort.Search(len(ms), func(i int) bool { return ms[i].first > from })
	if i == 0 {
		return tailMark{first: seg, off: segHeaderSize}
	}
	return ms[i-1]
}

func (f *FS) forgetMarks(seg uint64) {
	f.markMu.Lock()
	delete(f.marks, seg)
	if f.tipSeg == seg {
		f.tip = tailMark{}
	}
	f.markMu.Unlock()
}

// errOpenGroup is a clean end of file inside a batch group: its commit
// frame was never written, so the batch was never acked.
var errOpenGroup = errors.New("batch group without its commit")

// walUnit is one committed unit as it lies in its segment.
type walUnit struct {
	off int64 // where its first frame starts
	RawBatch
}

// unitError is a segment walk ending anywhere but cleanly between two
// units. off is the frame that could not be accepted; unitOff is where
// the unit it belongs to starts — the point to cut the file at — and
// id and pending describe the batch group lost with it, if one was
// open.
type unitError struct {
	off, unitOff int64
	id           string
	pending      int
	cause        error
}

func (e *unitError) Error() string { return fmt.Sprintf("%v at offset %d", e.cause, e.off) }
func (e *unitError) Unwrap() error { return e.cause }

// tailBlock is a tail read's block: a caught-up standby's poll ships
// less than this and sizes its one block by the bytes left in the file.
const tailBlock = 128 << 10

// unit returns the next whole unit: a bare record, or a batch group
// from its begin frame to a commit frame that matches it. io.EOF is a
// clean end between units; every other failure is a *unitError.
// It is the one place WAL units are assembled; recovery (scanSegment)
// and the replication read path (readSegmentUnits) differ only in what
// they do with its errors.
func (r *FrameReader) unit() (walUnit, error) {
	var (
		u     walUnit
		open  bool
		count int
	)
	fail := func(off int64, cause error) (walUnit, error) {
		e := &unitError{off: off, unitOff: off, cause: cause}
		if open {
			e.unitOff, e.id, e.pending = u.off, u.ID, len(u.Payloads)
		}
		return walUnit{}, e
	}
	for {
		kind, payload, off, err := r.Frame()
		if err == io.EOF {
			if !open {
				return walUnit{}, io.EOF
			}
			err = errOpenGroup
		}
		if err != nil {
			return fail(off, err)
		}
		switch {
		case kind == frameRecord && !open:
			return walUnit{off: off, RawBatch: RawBatch{Payloads: [][]byte{payload}}}, nil
		case kind == frameRecord:
			u.Payloads = append(u.Payloads, payload)
		case kind == frameBegin && !open:
			id, n, err := parseMarker(payload)
			if err != nil {
				return fail(off, err)
			}
			// The count is only a claim until the commit matches it, so
			// it sizes the slice up to a bound, not beyond.
			u, open, count = walUnit{off: off, RawBatch: RawBatch{ID: id, Payloads: make([][]byte, 0, min(n, 1024))}}, true, n
		case kind == frameCommit && open:
			id, n, err := parseMarker(payload)
			if err != nil {
				return fail(off, err)
			}
			if id != u.ID || n != count || len(u.Payloads) != count {
				return fail(off, fmt.Errorf("batch group %q commits %q with %d/%d records", u.ID, id, len(u.Payloads), count))
			}
			return u, nil
		case kind == frameBegin:
			return fail(off, errors.New("nested batch group"))
		case kind == frameCommit:
			return fail(off, errors.New("commit without batch group"))
		default:
			return fail(off, fmt.Errorf("unknown frame kind %d", kind))
		}
	}
}

// readSegHeader consumes and validates the header of the segment whose
// name says it starts at first.
func readSegHeader(file *os.File, name string, first uint64) error {
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(file, hdr[:]); err != nil {
		return fmt.Errorf("store: reading %s header: %w", name, err)
	}
	if string(hdr[:4]) != walMagic {
		return fmt.Errorf("store: %s is not a WAL segment", name)
	}
	if hdr[4] != walVersion {
		return fmt.Errorf("store: %s has segment version %d, want %d", name, hdr[4], walVersion)
	}
	if got := binary.LittleEndian.Uint64(hdr[5:]); got != first {
		return fmt.Errorf("store: %s header claims first index %d", name, got)
	}
	return nil
}

// scanSegment walks one segment's units, applying records at or past
// the replay point and re-recording the segment's marks on the way. It
// returns the offset to truncate the file at (-1 for none): the start
// of a torn/corrupt trailing frame, or of the uncommitted trailing
// batch group it belongs to, since a headless group could never commit.
func (f *FS) scanSegment(s segInfo, last bool, from uint64, idx *uint64, info *TailInfo, dec *dataset.Decoder, apply func(uint64, *dataset.Record) error) (int64, error) {
	file, err := os.Open(s.path)
	if err != nil {
		return -1, fmt.Errorf("store: %w", err)
	}
	defer file.Close()
	name := filepath.Base(s.path)

	f.forgetMarks(s.first)
	if err := readSegHeader(file, name, s.first); err != nil {
		if errors.Is(err, io.EOF) && s.size == 0 {
			// Empty file: a prior recovery truncated it away entirely.
			return -1, nil
		}
		if last && (errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)) {
			// A crash between file creation and the header flush; nothing
			// in it was ever acked.
			f.logf("store: WARNING: %s has a torn header; truncating to empty", name)
			info.TornTruncated = true
			return 0, nil
		}
		return -1, err
	}

	r := newSegReader(file, segHeaderSize, s.size, 1<<20)
	lastMark := int64(segHeaderSize)
	for {
		u, err := r.unit()
		if err == io.EOF {
			return -1, nil
		}
		if err != nil {
			var ue *unitError
			if !errors.As(err, &ue) {
				return -1, fmt.Errorf("store: %s: %w", name, err)
			}
			return f.tailDamage(name, last, r, ue, info)
		}
		f.noteUnit(&lastMark, s.first, tailMark{first: *idx, off: u.off})
		for _, p := range u.Payloads {
			if *idx >= from {
				var rec dataset.Record
				if err := dec.Decode(p, &rec); err != nil {
					return -1, fmt.Errorf("store: record %d in %s fails to decode: %w", *idx, name, err)
				}
				if err := apply(*idx, &rec); err != nil {
					return -1, err
				}
				info.Replayed++
			}
			*idx++
		}
		if u.ID != "" && *idx > from {
			info.Batches[u.ID] = len(u.Payloads)
		}
	}
}

// tailDamage decides what a failed walk means to recovery. A frame cut
// short, a bad checksum on the file's very last frame (a half-written
// sector) and a group missing its commit are what a crash leaves at
// the end of the log: there the damage is cut away — unless the store
// is read-only — so the next process appends to a clean log. Anywhere
// else, and for any other fault, it is damage recovery must not paper
// over.
func (f *FS) tailDamage(name string, last bool, r *FrameReader, ue *unitError, info *TailInfo) (int64, error) {
	var torn tornFrameError
	switch {
	case errors.As(ue.cause, &torn), errors.Is(ue.cause, errOpenGroup):
	case errors.Is(ue.cause, ErrFrameChecksum) && r.off == r.size:
	default:
		return -1, fmt.Errorf("store: %s: %w", name, ue)
	}
	if !last {
		return -1, fmt.Errorf("store: %s: %w, mid-log", name, ue)
	}
	action := "truncating"
	if f.opts.ReadOnly {
		action = "ignoring (read-only)"
	}
	dropped := ""
	if ue.unitOff != ue.off { // the frame belongs to an open group
		info.DroppedUncommitted += ue.pending
		dropped = fmt.Sprintf(" (dropping uncommitted batch %q, %d records)", ue.id, ue.pending)
	}
	f.logf("store: WARNING: torn WAL tail in %s: %v; %s%s", name, ue, action, dropped)
	if !errors.Is(ue.cause, errOpenGroup) {
		info.TornTruncated = true
	}
	return ue.unitOff, nil
}

func appendMarker(b []byte, id string, count int) []byte {
	b = binary.AppendUvarint(b, uint64(len(id)))
	b = append(b, id...)
	return binary.AppendUvarint(b, uint64(count))
}

func parseMarker(b []byte) (id string, count int, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < n {
		return "", 0, errors.New("corrupt batch marker")
	}
	id = string(b[w : w+int(n)])
	c, w2 := binary.Uvarint(b[w+int(n):])
	if w2 <= 0 {
		return "", 0, errors.New("corrupt batch marker")
	}
	return id, int(c), nil
}

// ReadTail scans committed units [from, end) without mutating the log
// or the engine: the replication read path. Unlike Tail it tolerates
// everything a concurrent writer can leave behind — a frame mid-flush,
// a batch group awaiting its commit, a segment created after the
// directory listing — by stopping silently at the first anomaly and
// reporting how far it got. A vanished starting segment (checkpoint
// pruning won the race) is ErrTailTruncated: the caller refetches a
// full checkpoint instead. The walk starts at the offset index's newest
// mark at or below from, so its cost follows the bytes past from, not
// the size of the segment holding it.
func (f *FS) ReadTail(from uint64, apply func(start uint64, b RawBatch) error) (uint64, error) {
	f.tailReads.Add(1)
	segs, err := f.listSegments()
	if err != nil {
		return from, fmt.Errorf("store: %w", err)
	}
	if len(segs) == 0 {
		f.mu.Lock()
		next, recovered := f.nextIndex, f.recovered
		f.mu.Unlock()
		if recovered && from < next {
			return from, fmt.Errorf("tail from %d but the log is empty below %d: %w", from, next, ErrTailTruncated)
		}
		return from, nil
	}
	if from < segs[0].first {
		return from, fmt.Errorf("tail from %d predates oldest retained segment (first %d): %w", from, segs[0].first, ErrTailTruncated)
	}
	start := 0
	for k := range segs {
		if segs[k].first <= from {
			start = k
		}
	}
	idx := segs[start].first
	delivered := false
	for k := start; k < len(segs); k++ {
		if segs[k].first != idx {
			// A gap can only mean the listing raced rotation/pruning in a
			// way recovery would reject; stop at the last clean boundary.
			break
		}
		next, stop, err := f.readSegmentUnits(segs[k], from, &delivered, apply)
		idx = next
		if err != nil {
			if !delivered && errors.Is(err, os.ErrNotExist) && k == start {
				return from, fmt.Errorf("tail segment pruned underfoot at %d: %w", from, ErrTailTruncated)
			}
			if errors.Is(err, ErrStopTail) {
				return idx, nil
			}
			if errors.Is(err, os.ErrNotExist) {
				break
			}
			return idx, err
		}
		if stop {
			break
		}
	}
	return idx, nil
}

// readSegmentUnits emits the whole committed units of one segment at or
// past the replay point, walking from the newest mark at or below it.
// It returns the index after the last clean unit boundary, and
// stop=true when the scan hit an anomaly (torn frame, open group at
// EOF) that ends the whole tail read.
func (f *FS) readSegmentUnits(s segInfo, from uint64, delivered *bool, apply func(uint64, RawBatch) error) (uint64, bool, error) {
	// Looking the mark up and opening the file are one step against
	// Reset, which can put different bytes under a segment's name.
	f.markMu.Lock()
	m := f.markFor(s.first, from)
	file, err := os.Open(s.path)
	f.markMu.Unlock()
	if err != nil {
		return s.first, true, err
	}
	defer file.Close()
	if readSegHeader(file, filepath.Base(s.path), s.first) != nil {
		return s.first, true, nil // header still flushing, or truncated-empty
	}

	next, stop, frames, err := f.walkUnits(file, s, m, from, delivered, apply)
	if frames == 0 && m.off != segHeaderSize {
		// A mark is written only behind a complete unit, so one with no
		// valid frame at it is stale: the file was cut or replaced by
		// something other than this engine. Forget the segment's marks
		// and walk from the header, which also re-learns them.
		f.forgetMarks(s.first)
		next, stop, _, err = f.walkUnits(file, s, tailMark{first: s.first, off: segHeaderSize}, from, delivered, apply)
	}
	return next, stop, err
}

// walkUnits is readSegmentUnits' walk from mark m; frames is how many
// frames passed validation.
func (f *FS) walkUnits(file *os.File, s segInfo, m tailMark, from uint64, delivered *bool, apply func(uint64, RawBatch) error) (idx uint64, stop bool, frames int, err error) {
	if _, err := file.Seek(m.off, io.SeekStart); err != nil {
		return m.first, true, 0, nil
	}
	r := newSegReader(file, m.off, s.size, tailBlock)
	var shipped uint64
	defer func() {
		f.tailScanned.Add(uint64(r.off - m.off))
		f.tailShipped.Add(shipped)
	}()
	idx, lastMark := m.first, m.off
	for {
		u, err := r.unit()
		if err != nil {
			// Anything but a clean end between units ends the whole tail
			// read at the last unit boundary: the writer may be mid-flush.
			return idx, err != io.EOF, r.frames, nil
		}
		f.noteUnit(&lastMark, s.first, tailMark{first: idx, off: u.off})
		end := idx + uint64(len(u.Payloads))
		if end > from {
			for _, p := range u.Payloads {
				shipped += uint64(len(p))
			}
			if err := apply(idx, u.RawBatch); err != nil {
				return end, true, r.frames, err
			}
			*delivered = true
		}
		idx = end
	}
}

// Reset discards the whole log and every checkpoint and restarts the
// record index at next — a standby resynchronizing onto a checkpoint
// fetched from its primary. The engine is appendable afterwards
// without another Tail.
func (f *FS) Reset(next uint64) error {
	if f.opts.ReadOnly {
		return errors.New("store: read-only")
	}
	f.cpMu.Lock()
	defer f.cpMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("store: closed")
	}
	if err := f.sealLocked(); err != nil {
		return err
	}
	segs, err := f.listSegments()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The next segment may reuse a removed one's name, so the files and
	// their marks go in one step as far as a tail read can tell.
	f.markMu.Lock()
	f.marks, f.tip = map[uint64][]tailMark{}, tailMark{}
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			f.markMu.Unlock()
			return fmt.Errorf("store: reset: %w", err)
		}
	}
	f.markMu.Unlock()
	cps, err := f.listCheckpoints()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, c := range cps {
		if err := os.Remove(c.path); err != nil {
			return fmt.Errorf("store: reset: %w", err)
		}
	}
	if f.opts.Mode != FsyncOff {
		if err := syncDir(f.walDir); err != nil {
			return err
		}
		if err := syncDir(f.ckptDir); err != nil {
			return err
		}
	}
	f.recovered = true
	f.nextIndex = next
	f.segments = 0
	f.walBytes = 0
	f.segBytes = 0
	f.lastCPRecords = 0
	f.lastCPUnix = 0
	return nil
}

func (f *FS) writable() error {
	if f.opts.ReadOnly {
		return errors.New("store: read-only")
	}
	if f.closed {
		return errors.New("store: closed")
	}
	if !f.recovered {
		return errors.New("store: Tail must run before Append")
	}
	return f.syncErr
}

// Append writes b to the WAL as one atomic group and flushes it to the
// OS. With FsyncAlways it is durable on return; otherwise call Sync.
func (f *FS) Append(b Batch) error {
	if len(b.Records) == 0 {
		return nil
	}
	if err := b.checkPayloads(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return err
	}
	if f.seg != nil && f.segBytes >= f.opts.SegmentBytes {
		if err := f.sealLocked(); err != nil {
			return err
		}
	}
	if f.seg == nil {
		if err := f.openSegLocked(); err != nil {
			return err
		}
	}
	unit := tailMark{first: f.nextIndex, off: f.segBytes}
	batched := b.ID != "" || len(b.Records) > 1
	if batched {
		if err := f.writeFrame(frameBegin, appendMarker(nil, b.ID, len(b.Records))); err != nil {
			return err
		}
	}
	for i := range b.Records {
		var payload []byte
		if b.Payloads != nil {
			payload = b.Payloads[i]
		} else {
			f.enc = b.Records[i].AppendJSON(f.enc[:0])
			payload = f.enc
		}
		if err := f.writeFrame(frameRecord, payload); err != nil {
			return err
		}
	}
	if batched {
		if err := f.writeFrame(frameCommit, appendMarker(nil, b.ID, len(b.Records))); err != nil {
			return err
		}
	}
	if err := f.segW.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Only now can a tail read see the whole unit, so only now may a
	// mark point at it.
	f.noteUnit(&f.segMarkOff, f.segFirst, unit)
	f.markMu.Lock()
	f.tip, f.tipSeg = unit, f.segFirst
	f.markMu.Unlock()
	f.nextIndex += uint64(len(b.Records))
	f.appendedRecords += uint64(len(b.Records))
	if b.ID != "" {
		f.appendedBatches++
	}
	if f.opts.Mode == FsyncAlways {
		return f.fsyncLocked()
	}
	return nil
}

func (f *FS) writeFrame(kind byte, payload []byte) error {
	f.scratch = AppendFrameHeader(f.scratch[:0], kind, payload)
	if _, err := f.segW.Write(f.scratch); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.segW.Write(payload); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	n := int64(len(f.scratch) + len(payload))
	f.segBytes += n
	f.walBytes += n
	return nil
}

func (f *FS) openSegLocked() error {
	path := filepath.Join(f.walDir, fmt.Sprintf("seg-%016x.wal", f.nextIndex))
	file, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:], walMagic)
	hdr[4] = walVersion
	binary.LittleEndian.PutUint64(hdr[5:], f.nextIndex)
	if _, err := file.Write(hdr[:]); err != nil {
		file.Close()
		return fmt.Errorf("store: %w", err)
	}
	if f.opts.Mode != FsyncOff {
		// Make the new segment's directory entry durable so a power cut
		// cannot orphan records fsynced into a file that is not findable.
		if err := syncDir(f.walDir); err != nil {
			file.Close()
			return err
		}
	}
	f.seg = file
	f.segW = bufio.NewWriterSize(file, 1<<20)
	f.segBytes = int64(segHeaderSize)
	f.segFirst, f.segMarkOff = f.nextIndex, int64(segHeaderSize)
	f.walBytes += int64(segHeaderSize)
	f.segments++
	return nil
}

func (f *FS) sealLocked() error {
	if f.seg == nil {
		return nil
	}
	if err := f.segW.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if f.opts.Mode != FsyncOff {
		if err := f.fsyncLocked(); err != nil {
			return err
		}
	}
	err := f.seg.Close()
	f.seg, f.segW = nil, nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (f *FS) fsyncLocked() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	start := time.Now()
	if err := f.fsync(f.seg); err != nil {
		f.syncErr = fmt.Errorf("store: fsync failed, log closed to writes: %w", err)
		return f.syncErr
	}
	f.fsyncHist.Observe(time.Since(start).Nanoseconds())
	return nil
}

// Sync makes everything appended so far durable (one fsync for any
// number of preceding appends — group commit). No-op under FsyncOff,
// and under FsyncAlways, where Append already synced. Once an fsync has
// failed, Sync and Append return that failure for good (see syncErr).
func (f *FS) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncErr != nil {
		return f.syncErr
	}
	if f.seg == nil || f.opts.Mode != FsyncBatch {
		return nil
	}
	if err := f.segW.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return f.fsyncLocked()
}

// Rotate seals the active segment; the next Append opens a fresh one.
func (f *FS) Rotate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.writable(); err != nil {
		return err
	}
	return f.sealLocked()
}

// Checkpoint persists cp atomically and prunes. Serialized against
// itself; concurrent Appends proceed (checkpoint IO never holds the
// append lock).
func (f *FS) Checkpoint(cp *Checkpoint) error {
	if f.opts.ReadOnly {
		return errors.New("store: read-only")
	}
	f.cpMu.Lock()
	defer f.cpMu.Unlock()

	payload := encodeCheckpoint(cp)
	final := filepath.Join(f.ckptDir, fmt.Sprintf("cp-%016x.ckpt", cp.Records))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, payload); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(f.ckptDir); err != nil {
		return err
	}

	f.mu.Lock()
	f.checkpoints++
	f.lastCPRecords = cp.Records
	f.lastCPUnix = time.Now().Unix()
	f.mu.Unlock()

	// Retain the newest KeepCheckpoints, then drop WAL segments every
	// retained checkpoint already covers.
	cps, err := f.listCheckpoints()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	keep := f.opts.KeepCheckpoints
	if len(cps) > keep {
		for _, old := range cps[keep:] {
			if err := os.Remove(old.path); err != nil {
				f.logf("store: pruning checkpoint %s: %v", filepath.Base(old.path), err)
			}
		}
		cps = cps[:keep]
	}
	oldest := cps[len(cps)-1].records
	return f.pruneWAL(oldest)
}

// pruneWAL removes segments whose records all precede index `below`
// (i.e. the next segment starts at or below it). The active segment
// always stays.
func (f *FS) pruneWAL(below uint64) error {
	segs, err := f.listSegments()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for k := 0; k+1 < len(segs); k++ {
		if segs[k+1].first > below {
			break
		}
		if err := os.Remove(segs[k].path); err != nil {
			f.logf("store: pruning segment %s: %v", filepath.Base(segs[k].path), err)
			continue
		}
		f.forgetMarks(segs[k].first)
		f.mu.Lock()
		f.pruned++
		f.segments--
		f.walBytes -= segs[k].size
		f.mu.Unlock()
	}
	return nil
}

// Stats reports durability counters.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Segments:              f.segments,
		WALBytes:              f.walBytes,
		NextIndex:             f.nextIndex,
		AppendedRecords:       f.appendedRecords,
		AppendedBatches:       f.appendedBatches,
		Fsync:                 f.fsyncHist.Clone(),
		Checkpoints:           f.checkpoints,
		LastCheckpointRecords: f.lastCPRecords,
		LastCheckpointUnix:    f.lastCPUnix,
		PrunedSegments:        f.pruned,
		TailReads:             f.tailReads.Load(),
		TailScannedBytes:      f.tailScanned.Load(),
		TailShippedBytes:      f.tailShipped.Load(),
	}
}

// Close seals the active segment. It does not checkpoint — callers
// that want a final checkpoint take one first (Server.Drain does).
func (f *FS) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	// Whoever opens the directory next may cut or remove files this
	// engine would never hear about.
	f.markMu.Lock()
	f.marks, f.tip = nil, tailMark{}
	f.markMu.Unlock()
	return f.sealLocked()
}

// EncodeCheckpoint renders cp in the self-validating single-file form
// (magic, version, record count, named sections, whole-file CRC) — the
// same bytes Checkpoint writes to disk, so a standby can fetch one over
// HTTP and persist or decode it with no second format.
func EncodeCheckpoint(cp *Checkpoint) []byte { return encodeCheckpoint(cp) }

// DecodeCheckpoint parses and validates EncodeCheckpoint's output.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) { return decodeCheckpoint(b) }

func encodeCheckpoint(cp *Checkpoint) []byte {
	names := make([]string, 0, len(cp.Sections))
	for name := range cp.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	b := make([]byte, 0, 64)
	b = append(b, ckptMagic...)
	b = append(b, ckptVersion)
	b = binary.LittleEndian.AppendUint64(b, cp.Records)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		sec := cp.Sections[name]
		b = binary.AppendUvarint(b, uint64(len(sec)))
		b = append(b, sec...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < 4+1+8+4 {
		return nil, errors.New("truncated checkpoint")
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != sum {
		return nil, errors.New("checkpoint checksum mismatch")
	}
	if string(body[:4]) != ckptMagic {
		return nil, errors.New("not a checkpoint file")
	}
	if body[4] != ckptVersion {
		return nil, fmt.Errorf("checkpoint version %d, want %d", body[4], ckptVersion)
	}
	cp := &Checkpoint{Records: binary.LittleEndian.Uint64(body[5:13]), Sections: map[string][]byte{}}
	rest := body[13:]
	n, w := checkpointUvarint(rest)
	if w <= 0 {
		return nil, errors.New("truncated checkpoint")
	}
	rest = rest[w:]
	var prev string
	for i := uint64(0); i < n; i++ {
		nameLen, w := checkpointUvarint(rest)
		if w <= 0 || uint64(len(rest)-w) < nameLen {
			return nil, errors.New("truncated checkpoint")
		}
		name := string(rest[w : w+int(nameLen)])
		rest = rest[w+int(nameLen):]
		if i > 0 && name <= prev {
			// encodeCheckpoint writes each section once, names in
			// order: a repeat would silently replace what came first.
			return nil, fmt.Errorf("checkpoint section %q after %q: names repeat or are out of order", name, prev)
		}
		prev = name
		secLen, w2 := checkpointUvarint(rest)
		if w2 <= 0 || uint64(len(rest)-w2) < secLen {
			return nil, errors.New("truncated checkpoint")
		}
		cp.Sections[name] = append([]byte(nil), rest[w2:w2+int(secLen)]...)
		rest = rest[w2+int(secLen):]
	}
	if len(rest) != 0 {
		return nil, errors.New("trailing bytes in checkpoint")
	}
	return cp, nil
}

// checkpointUvarint is binary.Uvarint that also refuses, as it refuses
// a truncated one (w <= 0), a value spelt in more bytes than
// encodeCheckpoint writes it with: a checkpoint that decodes then
// re-encodes to the bytes it came from.
func checkpointUvarint(b []byte) (uint64, int) {
	v, w := binary.Uvarint(b)
	var buf [binary.MaxVarintLen64]byte
	if w > 0 && w != len(binary.AppendUvarint(buf[:0], v)) {
		return 0, 0
	}
	return v, w
}

func writeFileSync(path string, b []byte) error {
	file, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := file.Write(b); err != nil {
		file.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := file.Sync(); err != nil {
		file.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}
