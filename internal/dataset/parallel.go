package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// LineError reports a failure at a specific 1-based line of a JSONL
// stream. Decode failures carry the offending line; read failures
// (After=true) carry the last line that was read successfully.
type LineError struct {
	Line  int
	After bool
	Err   error
}

func (e *LineError) Error() string {
	if e.After {
		return fmt.Sprintf("dataset: after line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("dataset: line %d: %v", e.Line, e.Err)
}

func (e *LineError) Unwrap() error { return e.Err }

// Block sizing for ParallelReader. The scanner goroutine only moves
// blocks: it reads parallelBlock bytes, cuts at the last newline, and
// hands the whole block to a worker — line splitting, numbering inside
// the block, and decoding all happen on the worker, so the serial
// section per record is a few instructions of memchr instead of a
// per-line copy through bufio.Scanner. Block boundaries depend only on
// the input bytes, never on worker count or timing, which keeps the
// record sequence invariant across worker counts.
//
// This file is where the NDJSON line rules live, for every reader of
// records (ReadAll, bounceanalyze -in, bounced -replay and POST
// /v1/records): lines end at '\n' and a trailing '\r' is dropped,
// blank lines are numbered and skipped, a line longer than maxLineBytes
// is bufio.ErrTooLong, a torn final line is decoded (and fails at its
// own number), and every error is a *LineError naming its 1-based line
// — bufio.ScanLines' semantics, which the tests hold it to.
const (
	parallelBlock = 512 << 10
	maxLineBytes  = 1 << 24
)

// chunk is one block of raw lines plus the records decoded from them.
// Chunks are pooled; done is closed by the worker that decoded it.
type chunk struct {
	buf   []byte
	first int // 1-based global line number of the block's first line
	recs  []Record
	nums  []int // global line number per decoded record
	err   error // *LineError on the first bad line, nil otherwise
	done  chan struct{}
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

var nl = []byte{'\n'}

// ParallelReader is a RecordSource that decodes a JSONL stream on a
// worker pool while preserving input order: a scanner goroutine slices
// the stream into line-aligned blocks, workers split and decode blocks
// concurrently, and Next yields records chunk by chunk in stream order
// — the same order-merge discipline as delivery.ParallelRun, so the
// sequence is byte-identical for any worker count.
//
// Next/NextBatch/Err/Line must be called from one goroutine. Close
// releases the pipeline (safe if the stream was only partially
// consumed) and must not race with Next.
type ParallelReader struct {
	jobs   chan *chunk
	order  chan *chunk
	cancel chan struct{}
	once   sync.Once
	block  int

	cur     *chunk
	curIdx  int
	batchAt int // index in cur of the last NextBatch's first record
	line    int // number of the last line yielded or faulted
	err     error
	readErr *LineError // set by the scanner goroutine before closing order
}

// NewParallelReader starts decoding r with the given worker count
// (<=0 means GOMAXPROCS).
func NewParallelReader(r io.Reader, workers int) *ParallelReader {
	return newParallelReaderSize(r, workers, parallelBlock)
}

// newParallelReaderSize is NewParallelReader with an explicit block
// size — the test hook that makes multi-block behaviour reachable with
// small corpora.
func newParallelReaderSize(r io.Reader, workers, block int) *ParallelReader {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if block <= 0 {
		block = parallelBlock
	}
	p := &ParallelReader{
		jobs:   make(chan *chunk, workers),
		order:  make(chan *chunk, 2*workers+2),
		cancel: make(chan struct{}),
		block:  block,
	}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go p.scan(r)
	return p
}

func (p *ParallelReader) worker() {
	d := GetDecoder()
	defer PutDecoder(d)
	for c := range p.jobs {
		decodeChunk(d, c)
		close(c.done)
	}
}

// decodeChunk splits a block into lines (memchr scan, trailing-\r
// strip, blank lines numbered but skipped — bufio.ScanLines semantics)
// and decodes each into the chunk's record buffer.
func decodeChunk(d *Decoder, c *chunk) {
	c.recs, c.nums = c.recs[:0], c.nums[:0]
	num := c.first - 1
	buf := c.buf
	for off := 0; off < len(buf); {
		var line []byte
		if j := bytes.IndexByte(buf[off:], '\n'); j >= 0 {
			line = buf[off : off+j]
			off += j + 1
		} else {
			line = buf[off:] // partial final line (EOF or read error tail)
			off = len(buf)
		}
		num++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if len(c.recs) < cap(c.recs) {
			c.recs = c.recs[:len(c.recs)+1]
		} else {
			c.recs = append(c.recs, Record{})
		}
		if err := d.Decode(line, &c.recs[len(c.recs)-1]); err != nil {
			c.recs = c.recs[:len(c.recs)-1]
			c.err = &LineError{Line: num, Err: err}
			return
		}
		c.nums = append(c.nums, num)
	}
}

// countLines returns how many scanner lines buf holds: one per newline,
// plus a final unterminated line if the buffer does not end in one.
func countLines(buf []byte) int {
	n := bytes.Count(buf, nl)
	if len(buf) > 0 && buf[len(buf)-1] != '\n' {
		n++
	}
	return n
}

func (p *ParallelReader) scan(r io.Reader) {
	defer close(p.jobs)
	defer close(p.order)
	line := 0        // global lines handed to workers so far
	var carry []byte // head of a line cut by the previous block
	for {
		c := newChunk()
		c.buf = append(c.buf, carry...)
		carry = carry[:0]

		// Fill at least one more block's worth, growing past the target
		// only while a single line spans blocks.
		var readErr error
		for {
			target := len(c.buf) + p.block
			if cap(c.buf) < target {
				grown := make([]byte, len(c.buf), target)
				copy(grown, c.buf)
				c.buf = grown
			}
			for len(c.buf) < target && readErr == nil {
				var n int
				n, readErr = r.Read(c.buf[len(c.buf):target])
				c.buf = c.buf[:len(c.buf)+n]
			}
			if readErr != nil || bytes.IndexByte(c.buf[target-p.block:], '\n') >= 0 {
				break
			}
			// No newline in the whole buffer: the line is over the limit
			// once the limit's worth has come without one.
			if len(c.buf) >= maxLineBytes {
				p.readErr = &LineError{Line: line, After: true, Err: bufio.ErrTooLong}
				return
			}
		}

		// Cut at the last newline mid-stream; at end of stream the
		// partial final line rides along — a torn tail then surfaces as a
		// decode error at its true line, not a silent drop.
		cut := len(c.buf)
		if readErr == nil {
			cut = bytes.LastIndexByte(c.buf, '\n') + 1 // >0: loop above saw one
			carry = append(carry[:0], c.buf[cut:]...)
			c.buf = c.buf[:cut]
		}
		// The only line that can exceed the limit with newlines present
		// is the first (carry-completing) one.
		if cut > 0 {
			if fn := bytes.IndexByte(c.buf, '\n'); fn >= maxLineBytes || (fn < 0 && len(c.buf) > maxLineBytes) {
				p.readErr = &LineError{Line: line, After: true, Err: bufio.ErrTooLong}
				return
			}
		}

		if len(c.buf) > 0 {
			c.first = line + 1
			line += countLines(c.buf)
			if !p.emit(c) {
				return // cancelled
			}
		}
		if readErr != nil {
			if readErr != io.EOF {
				p.readErr = &LineError{Line: line, After: true, Err: readErr}
			}
			return
		}
	}
}

// emit hands a chunk to the workers and to the in-order consumer; both
// sends watch cancel so Close never strands the scanner.
func (p *ParallelReader) emit(c *chunk) bool {
	c.done = make(chan struct{})
	select {
	case p.jobs <- c:
	case <-p.cancel:
		return false
	}
	select {
	case p.order <- c:
	case <-p.cancel:
		return false
	}
	return true
}

func newChunk() *chunk {
	c := chunkPool.Get().(*chunk)
	c.buf, c.err, c.done, c.first = c.buf[:0], nil, nil, 0
	return c
}

// Next returns the next record in input order. The pointer is valid
// until the following Next call.
func (p *ParallelReader) Next() (*Record, bool) {
	if p.err != nil {
		return nil, false
	}
	for {
		if p.cur != nil && p.curIdx < len(p.cur.recs) {
			rec := &p.cur.recs[p.curIdx]
			p.line = p.cur.nums[p.curIdx]
			p.curIdx++
			return rec, true
		}
		if !p.advance() {
			return nil, false
		}
	}
}

// NextBatch returns every remaining decoded record of the current
// chunk — at least one when ok. The slice (and the records' backing
// memory) is valid only until the next Next/NextBatch call; consumers
// that retain records must copy them out first. Draining by NextBatch
// yields exactly the Next sequence, chunked.
func (p *ParallelReader) NextBatch() ([]Record, bool) {
	if p.err != nil {
		return nil, false
	}
	for {
		if p.cur != nil && p.curIdx < len(p.cur.recs) {
			recs := p.cur.recs[p.curIdx:len(p.cur.recs):len(p.cur.recs)]
			p.line = p.cur.nums[len(p.cur.recs)-1]
			p.batchAt, p.curIdx = p.curIdx, len(p.cur.recs)
			return recs, true
		}
		if !p.advance() {
			return nil, false
		}
	}
}

// BatchLines returns the 1-based line number of each record in the
// slice the last NextBatch returned, valid as long as that slice is.
func (p *ParallelReader) BatchLines() []int { return p.cur.nums[p.batchAt:] }

// advance retires the current chunk (surfacing its decode error, if
// any) and pulls the next one in stream order. False means the stream
// is over — p.err has the verdict.
func (p *ParallelReader) advance() bool {
	if p.cur != nil {
		if p.cur.err != nil {
			p.err = p.cur.err
			p.line = p.cur.err.(*LineError).Line
			p.release()
			return false
		}
		p.release()
	}
	c, ok := <-p.order
	if !ok {
		if p.err == nil && p.readErr != nil {
			p.err = p.readErr
			// Read failures carry the last line scanned; report it so
			// Line() does not sit a chunk behind the true position.
			p.line = p.readErr.Line
		}
		return false
	}
	<-c.done
	p.cur, p.curIdx = c, 0
	return true
}

// release returns the current chunk to the pool. Safe only after the
// chunk's done channel closed (its worker is finished with it).
func (p *ParallelReader) release() {
	// Drop oversize buffers instead of pooling them forever.
	if p.cur != nil && cap(p.cur.buf) <= 4*parallelBlock {
		chunkPool.Put(p.cur)
	}
	p.cur = nil
}

// Err returns the first error (always a *LineError) after Next returned
// false, or nil at clean EOF or after a Close-triggered stop.
func (p *ParallelReader) Err() error { return p.err }

// Line returns the 1-based number of the last line consumed.
func (p *ParallelReader) Line() int { return p.line }

// Close stops the pipeline and waits for its goroutines to wind down.
// Do not call Next concurrently with or after Close.
func (p *ParallelReader) Close() {
	p.once.Do(func() { close(p.cancel) })
	if p.cur != nil {
		p.release()
	}
	for c := range p.order {
		<-c.done
	}
}

// ParallelFileSource is an OpenParallel handle: a ParallelReader over an
// (optionally gzipped) dataset file.
type ParallelFileSource struct {
	*ParallelReader
	f io.Closer
}

// OpenParallel opens path like Open but decodes it with a
// ParallelReader. workers<=0 means GOMAXPROCS.
func OpenParallel(path string, workers int) (*ParallelFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rd, err := NewDecodingReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &ParallelFileSource{ParallelReader: NewParallelReader(rd, workers), f: f}, nil
}

// Close tears down the decode pipeline and closes the file.
func (s *ParallelFileSource) Close() error {
	s.ParallelReader.Close()
	return s.f.Close()
}
