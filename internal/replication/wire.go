// Package replication turns a durable bounced node into a small HA
// cluster: a primary streams its checkpoint plus incremental WAL tails
// to standbys that continuously recover-and-apply, a standby promotes
// when the primary dies (manual POST /v1/promote or heartbeat
// timeout), and a thin ingest router forwards client batches to
// whichever node is currently primary. The design goal is the same
// byte-identical bar every other bounced path clears: a report served
// by a promoted standby is indistinguishable from one served by a
// primary that never died, with zero acked records lost. See
// DESIGN.md §12.
//
// This file is the wire format. A WAL tail response
// (GET /v1/repl/wal?from=N) is
//
//	"BRTL" version  from u64          header
//	frames                            store's frame layout (store/frame.go)
//
// kind 1 opens a unit (payload: batch ID length-prefixed + record
// count), kind 2 is one record's NDJSON bytes — the exact bytes the
// primary's WAL holds, shipped without a decode/re-encode round trip —
// and kind 3 ends the response (payload: the primary's log end index
// and current epoch). A response without its end frame is torn (the
// primary died mid-stream) and the standby discards the unfinished
// unit, exactly like WAL crash replay discards an uncommitted batch.
package replication

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/store"
)

const (
	streamMagic   = "BRTL"
	streamVersion = 1

	frameUnit byte = 1
	frameRec  byte = 2
	frameEnd  byte = 3
)

// The HTTP surface, shared by the server handlers, the standby's sync
// loop, and the router's probes.
const (
	PathWAL        = "/v1/repl/wal"
	PathCheckpoint = "/v1/repl/checkpoint"
	PathStatus     = "/v1/repl/status"
	PathPromote    = "/v1/promote"
	// PathRouterStatus is served by -role=router nodes; the coordinator
	// probes it to follow each shard's elected primary.
	PathRouterStatus = "/v1/router/status"
)

// A response is a few hundred records; its 64 KiB of buffer is held
// between responses rather than allocated, and zeroed, for each.
var tailWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// Unit is one atomic WAL unit on the wire: a committed client batch
// (ID + one payload per record) or a bare record (ID "").
type Unit struct {
	Start    uint64
	ID       string
	Payloads [][]byte
}

// End is the stream trailer: how far the primary's log reaches and
// which epoch it believes itself to be.
type End struct {
	LogEnd uint64
	Epoch  uint64
}

// TailWriter streams a WAL tail response. It is done with after End.
type TailWriter struct {
	w       *bufio.Writer
	scratch []byte
}

// NewTailWriter writes the stream header for a tail starting at from.
func NewTailWriter(w io.Writer, from uint64) (*TailWriter, error) {
	tw := &TailWriter{w: tailWriters.Get().(*bufio.Writer)}
	tw.w.Reset(w)
	var hdr [13]byte
	copy(hdr[:], streamMagic)
	hdr[4] = streamVersion
	binary.LittleEndian.PutUint64(hdr[5:], from)
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *TailWriter) frame(kind byte, payload []byte) error {
	tw.scratch = store.AppendFrameHeader(tw.scratch[:0], kind, payload)
	if _, err := tw.w.Write(tw.scratch); err != nil {
		return err
	}
	_, err := tw.w.Write(payload)
	return err
}

// Unit writes one atomic unit: its header frame then a frame per
// record payload.
func (tw *TailWriter) Unit(start uint64, id string, payloads [][]byte) error {
	hdr := binary.AppendUvarint(nil, start)
	hdr = binary.AppendUvarint(hdr, uint64(len(id)))
	hdr = append(hdr, id...)
	hdr = binary.AppendUvarint(hdr, uint64(len(payloads)))
	if err := tw.frame(frameUnit, hdr); err != nil {
		return err
	}
	for _, p := range payloads {
		if err := tw.frame(frameRec, p); err != nil {
			return err
		}
	}
	return nil
}

// End writes the trailer and flushes. A stream without it is torn.
func (tw *TailWriter) End(logEnd, epoch uint64) error {
	var payload [16]byte
	binary.LittleEndian.PutUint64(payload[:8], logEnd)
	binary.LittleEndian.PutUint64(payload[8:], epoch)
	if err := tw.frame(frameEnd, payload[:]); err != nil {
		return err
	}
	err := tw.w.Flush()
	tw.w.Reset(nil)
	tailWriters.Put(tw.w)
	tw.w = nil
	return err
}

// ErrTornStream reports a tail response cut off before its end frame —
// the primary died mid-send. Whatever complete units arrived before
// the tear are already applied; the unfinished one is discarded.
var ErrTornStream = errors.New("replication: tail stream torn (no end frame)")

// TailReader parses a WAL tail response. Its payloads are slices of
// blocks it never writes again, so they stay valid after later calls.
type TailReader struct {
	fr   *store.FrameReader
	From uint64
	done bool
}

// NewTailReader validates the stream header.
func NewTailReader(r io.Reader) (*TailReader, error) {
	var hdr [13]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("replication: reading stream header: %w", err)
	}
	if string(hdr[:4]) != streamMagic {
		return nil, errors.New("replication: not a tail stream")
	}
	if hdr[4] != streamVersion {
		return nil, fmt.Errorf("replication: stream version %d, want %d", hdr[4], streamVersion)
	}
	// 32 KiB blocks stay in the runtime's small-object size classes;
	// 64 KiB ones, large objects, left a standby ≈ 4 MiB more resident.
	return &TailReader{fr: store.NewFrameReader(r, 32<<10), From: binary.LittleEndian.Uint64(hdr[5:])}, nil
}

// frame reads one frame, of kind want unless want is 0. Anything
// short of a whole frame is a torn stream.
func (tr *TailReader) frame(want byte) (byte, []byte, error) {
	kind, payload, _, err := tr.fr.Frame()
	if errors.Is(err, store.ErrFrameChecksum) {
		return 0, nil, fmt.Errorf("replication: %w", err)
	}
	if err != nil {
		return 0, nil, ErrTornStream
	}
	if want != 0 && kind != want {
		return 0, nil, fmt.Errorf("replication: frame kind %d, want %d", kind, want)
	}
	return kind, payload, nil
}

// Next returns the next unit, or the trailer (unit nil, end set), or
// an error. After the trailer it keeps returning io.EOF.
func (tr *TailReader) Next() (*Unit, *End, error) {
	if tr.done {
		return nil, nil, io.EOF
	}
	kind, payload, err := tr.frame(0)
	if err != nil {
		return nil, nil, err
	}
	switch kind {
	case frameEnd:
		if len(payload) != 16 {
			return nil, nil, errors.New("replication: malformed end frame")
		}
		tr.done = true
		return nil, &End{
			LogEnd: binary.LittleEndian.Uint64(payload[:8]),
			Epoch:  binary.LittleEndian.Uint64(payload[8:]),
		}, nil
	case frameUnit:
		u, count, err := parseUnitHeader(payload)
		if err != nil {
			return nil, nil, err
		}
		for ; count > 0; count-- {
			_, rec, err := tr.frame(frameRec)
			if err != nil {
				return nil, nil, err
			}
			u.Payloads = append(u.Payloads, rec)
		}
		return u, nil, nil
	default:
		return nil, nil, fmt.Errorf("replication: unexpected frame kind %d", kind)
	}
}

// parseUnitHeader returns the unit a header opens and the record count
// it claims. The count is only a claim until that many frames arrive, so
// it sizes the payload slice up to a bound, not beyond.
func parseUnitHeader(b []byte) (*Unit, uint64, error) {
	malformed := errors.New("replication: malformed unit header")
	start, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, 0, malformed
	}
	b = b[w:]
	idLen, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < idLen {
		return nil, 0, malformed
	}
	id := string(b[w : w+int(idLen)])
	b = b[w+int(idLen):]
	count, w := binary.Uvarint(b)
	if w <= 0 || len(b) != w || count > 1<<24 {
		return nil, 0, malformed
	}
	return &Unit{Start: start, ID: id, Payloads: make([][]byte, 0, min(count, 1024))}, count, nil
}
