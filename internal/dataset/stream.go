package dataset

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// RecordSource yields records one at a time. Next returns false once
// the source is exhausted. The returned pointer is only valid until
// the next call to Next; callers that retain records must copy them.
type RecordSource interface {
	Next() (*Record, bool)
}

var _ RecordSource = (*SliceSource)(nil)
var _ RecordSource = (*ContextSource)(nil)
var _ RecordSource = (*Pipe)(nil)

// SliceSource adapts an in-memory slice to RecordSource.
type SliceSource struct {
	records []Record
	i       int
}

// NewSliceSource returns a source that yields records in order without
// copying them.
func NewSliceSource(records []Record) *SliceSource {
	return &SliceSource{records: records}
}

func (s *SliceSource) Next() (*Record, bool) {
	if s.i >= len(s.records) {
		return nil, false
	}
	r := &s.records[s.i]
	s.i++
	return r, true
}

// ErrClosedPipe is returned by Pipe.Write after the pipe has been
// closed from either side: by the consumer via CloseRead, or by the
// producer via Close (a late concurrent Write races the close and gets
// a clean error instead of a panic or a silently lost record).
var ErrClosedPipe = errors.New("dataset: write on closed pipe")

// Pipe is a bounded ring buffer connecting record producers to a
// consumer: producers call Write (blocking once the buffer fills,
// which backpressures generation to analysis speed) and Close; the
// consumer calls Next until it returns false. A consumer that stops
// early calls CloseRead, which unblocks pending and future writers
// with ErrClosedPipe instead of leaving them hung — the abort path
// HTTP ingestion and Ctrl-C cancellation rely on.
//
// Shutdown ordering is race-safe in both directions: a Write blocked
// on a full buffer when CloseRead lands wakes with ErrClosedPipe (the
// record is not enqueued), and a Write racing Close fails the same
// way rather than panicking on a closed channel. After Close the
// consumer still drains every record accepted before the close.
type Pipe struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	buf     []Record
	head    int // next record to read
	n       int // records buffered
	closed  bool
	aborted bool

	cur Record
}

// NewPipe creates a pipe buffering up to buf records.
func NewPipe(buf int) *Pipe {
	if buf < 1 {
		buf = 1
	}
	p := &Pipe{buf: make([]Record, buf)}
	p.notFull.L = &p.mu
	p.notEmpty.L = &p.mu
	return p
}

// Write copies r into the pipe, blocking while the buffer is full. It
// returns ErrClosedPipe once the pipe is closed from either side; the
// record is then not enqueued.
func (p *Pipe) Write(r *Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.n == len(p.buf) && !p.closed && !p.aborted {
		p.notFull.Wait()
	}
	if p.closed || p.aborted {
		return ErrClosedPipe
	}
	p.buf[(p.head+p.n)%len(p.buf)] = *r
	p.n++
	p.notEmpty.Signal()
	return nil
}

// WriteBatch copies recs into the pipe in order, blocking while the
// buffer is full, and reports how many records were enqueued. It stops
// early with ErrClosedPipe once the pipe closes from either side;
// records [n:] are then not enqueued. Equivalent to calling Write per
// record, but each lock acquisition moves as many records as fit.
func (p *Pipe) WriteBatch(recs []Record) (n int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n < len(recs) {
		for p.n == len(p.buf) && !p.closed && !p.aborted {
			p.notFull.Wait()
		}
		if p.closed || p.aborted {
			return n, ErrClosedPipe
		}
		// Copy into the free region, at most two segments (ring wrap).
		free := len(p.buf) - p.n
		want := len(recs) - n
		if want > free {
			want = free
		}
		w := (p.head + p.n) % len(p.buf)
		c := copy(p.buf[w:], recs[n:n+want])
		if c < want {
			copy(p.buf, recs[n+c:n+want])
		}
		p.n += want
		n += want
		p.notEmpty.Broadcast()
	}
	return n, nil
}

// Close signals the consumer that no more records follow; buffered
// records remain readable. Subsequent or concurrently blocked writes
// fail with ErrClosedPipe. Safe to call more than once.
func (p *Pipe) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.notFull.Broadcast()
	p.notEmpty.Broadcast()
}

// CloseRead aborts the stream from the consumer side: buffered records
// are discarded, Next returns false, and blocked or future Write calls
// fail with ErrClosedPipe. Safe to call any number of times and
// concurrently with writers.
func (p *Pipe) CloseRead() {
	p.mu.Lock()
	p.aborted = true
	p.n = 0
	p.mu.Unlock()
	p.notFull.Broadcast()
	p.notEmpty.Broadcast()
}

// Len reports the number of records currently buffered.
func (p *Pipe) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Cap reports the pipe's buffer capacity.
func (p *Pipe) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

func (p *Pipe) Next() (*Record, bool) {
	p.mu.Lock()
	for p.n == 0 && !p.closed && !p.aborted {
		p.notEmpty.Wait()
	}
	if p.aborted || p.n == 0 { // aborted, or closed and fully drained
		p.mu.Unlock()
		return nil, false
	}
	p.cur = p.buf[p.head]
	p.buf[p.head] = Record{} // do not pin the record's strings
	p.head = (p.head + 1) % len(p.buf)
	p.n--
	p.mu.Unlock()
	p.notFull.Signal()
	return &p.cur, true
}

// NextBatch moves up to len(dst) buffered records into dst and reports
// how many. It blocks like Next while the pipe is open and empty, and
// returns 0, false once the pipe is aborted or closed and drained.
// Consumed slots are zeroed so the pipe does not pin record strings.
func (p *Pipe) NextBatch(dst []Record) (int, bool) {
	if len(dst) == 0 {
		return 0, true
	}
	p.mu.Lock()
	for p.n == 0 && !p.closed && !p.aborted {
		p.notEmpty.Wait()
	}
	if p.aborted || p.n == 0 { // aborted, or closed and fully drained
		p.mu.Unlock()
		return 0, false
	}
	want := p.n
	if want > len(dst) {
		want = len(dst)
	}
	// At most two segments (ring wrap), zeroing behind the copy.
	c := copy(dst, p.buf[p.head:min(p.head+want, len(p.buf))])
	clear(p.buf[p.head : p.head+c])
	if c < want {
		c2 := copy(dst[c:want], p.buf)
		clear(p.buf[:c2])
	}
	p.head = (p.head + want) % len(p.buf)
	p.n -= want
	p.mu.Unlock()
	p.notFull.Broadcast()
	return want, true
}

// gzipMagic is the two-byte gzip member header (RFC 1952).
var gzipMagic = []byte{0x1f, 0x8b}

// NewDecodingReader sniffs r's first bytes and transparently unwraps a
// gzip stream, so callers accept .jsonl and .jsonl.gz alike without
// trusting file extensions.
func NewDecodingReader(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<15)
	head, err := br.Peek(2)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("dataset: sniff input: %w", err)
	}
	if len(head) == 2 && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("dataset: gzip input: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// ContextSource stops yielding records once ctx is cancelled, which
// propagates Ctrl-C through streaming consumers (NewFromSource) that
// otherwise only stop at end of input.
type ContextSource struct {
	ctx context.Context
	src RecordSource
}

// NewContextSource wraps src with ctx cancellation.
func NewContextSource(ctx context.Context, src RecordSource) *ContextSource {
	return &ContextSource{ctx: ctx, src: src}
}

func (s *ContextSource) Next() (*Record, bool) {
	if s.ctx.Err() != nil {
		return nil, false
	}
	return s.src.Next()
}

// Err returns the cancellation cause, or the wrapped source's own
// error when it exposes one.
func (s *ContextSource) Err() error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if es, ok := s.src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}
