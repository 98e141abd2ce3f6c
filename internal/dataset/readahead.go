package dataset

import "io"

// readAheadBlock is the size of one prefetch buffer. Matches the
// parallel decoder's block size so one prefetched buffer feeds one
// decode chunk.
const readAheadBlock = 256 << 10

// ReadAhead pumps an underlying reader from its own goroutine,
// buffering up to depth blocks ahead of the consumer. Wrapping a gzip
// stream with it overlaps decompression with downstream decode work:
// the pump inflates the next blocks while the parallel reader's
// workers are still parsing the current ones. On a single-CPU host it
// degrades to plain buffered reading.
//
// Read is not safe for concurrent use (io.Reader's usual contract).
// Close releases the pump goroutine and must be called exactly once;
// it does not close the underlying reader.
//
// Nothing outside bench/stage.go calls it; the file goes with that row.
type ReadAhead struct {
	blocks chan raBlock
	free   chan []byte
	stop   chan struct{}
	cur    raBlock
	off    int
	err    error
}

type raBlock struct {
	buf []byte
	err error
}

// NewReadAhead starts prefetching from r, keeping up to depth blocks
// (plus one in flight) buffered. depth < 1 is treated as 1.
func NewReadAhead(r io.Reader, depth int) *ReadAhead {
	if depth < 1 {
		depth = 1
	}
	ra := &ReadAhead{
		blocks: make(chan raBlock, depth),
		free:   make(chan []byte, depth+1),
		stop:   make(chan struct{}),
	}
	for i := 0; i < depth+1; i++ {
		ra.free <- make([]byte, readAheadBlock)
	}
	go ra.pump(r)
	return ra
}

func (ra *ReadAhead) pump(r io.Reader) {
	defer close(ra.blocks)
	for {
		var buf []byte
		select {
		case buf = <-ra.free:
		case <-ra.stop:
			return
		}
		n, err := io.ReadFull(r, buf)
		if n > 0 || err != nil {
			if err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			select {
			case ra.blocks <- raBlock{buf: buf[:n], err: err}:
			case <-ra.stop:
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (ra *ReadAhead) Read(p []byte) (int, error) {
	for ra.off == len(ra.cur.buf) {
		if ra.cur.err != nil {
			return 0, ra.cur.err
		}
		if ra.err != nil {
			return 0, ra.err
		}
		b, ok := <-ra.blocks
		if !ok {
			ra.err = io.EOF
			return 0, io.EOF
		}
		if ra.cur.buf != nil {
			// Recycle the drained buffer for the pump.
			select {
			case ra.free <- ra.cur.buf[:cap(ra.cur.buf)]:
			default:
			}
		}
		ra.cur = b
		ra.off = 0
	}
	n := copy(p, ra.cur.buf[ra.off:])
	ra.off += n
	if ra.off == len(ra.cur.buf) && ra.cur.err != nil && n > 0 {
		// Deliver the data now; the error surfaces on the next call.
		return n, nil
	}
	return n, nil
}

// Close stops the pump goroutine. The underlying reader is left to the
// caller. Always returns nil.
func (ra *ReadAhead) Close() error {
	select {
	case <-ra.stop:
	default:
		close(ra.stop)
	}
	// Drain so a pump blocked on a full blocks channel sees stop.
	for range ra.blocks {
	}
	return nil
}
