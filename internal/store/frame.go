package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The frame is the unit of both of the engine's byte streams — a WAL
// segment after its header, and the BRTL tail stream replication ships
// (package replication) after its own:
//
//	[kind u8][payload len uvarint][crc32c u32 LE over kind+payload][payload]
//
// The kinds are each stream's own; the layout, the checksum and the
// bound on a payload's length are decided here, once.

// maxFrameBytes bounds a payload: a longer claim is damage, not data.
const maxFrameBytes = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// kindCRC is the checksum of each one-byte frame kind, which every
// frame's checksum continues from.
var kindCRC = func() (t [256]uint32) {
	for k := range t {
		t[k] = crc32.Update(0, crcTable, []byte{byte(k)})
	}
	return t
}()

// AppendFrameHeader appends the header of the frame carrying payload —
// everything but the payload itself, which the caller writes next.
func AppendFrameHeader(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Update(kindCRC[kind], crcTable, payload))
}

// ErrFrameChecksum is a complete frame whose payload fails its CRC.
var ErrFrameChecksum = errors.New("frame checksum mismatch")

// tornFrameError is a frame cut short, or one whose length claims more
// bytes than the file holds: what a crash, or a writer still flushing,
// leaves at the end of a segment, and what a sender that died leaves at
// the end of a stream.
type tornFrameError string

func (e tornFrameError) Error() string { return string(e) }

// FrameReader reads frames a block at a time and hands out payloads
// that are slices of the block, so a few hundred frames cost one
// allocation and no copy. Bytes once parsed are never written again — a
// block with no room for the next frame is left to the payloads cut
// from it and a new one started — so callers keep payloads as long as
// they like.
//
// Over a file (a WAL segment) the file's size bounds what a header may
// claim. Over a stream nothing does until the bytes arrive, so its
// blocks grow with the bytes received — doubling at most — and never
// with what a length header says; a short stream, such as a caught-up
// standby's poll, costs one small block.
type FrameReader struct {
	r      io.Reader
	block  int    // how much to ask for at a time
	buf    []byte // buf[next:] is read and not yet parsed
	next   int
	off    int64 // offset of buf[next], the next unparsed byte
	size   int64 // file size as last observed (a live segment grows); -1 for a stream
	frames int   // frames that passed validation
}

// NewFrameReader reads frames from a stream of unknown length.
func NewFrameReader(r io.Reader, block int) *FrameReader {
	return &FrameReader{r: r, block: block, size: -1}
}

// newSegReader reads frames from off of a WAL segment of size bytes,
// where file must be positioned.
func newSegReader(file *os.File, off, size int64, block int) *FrameReader {
	return &FrameReader{r: file, block: block, off: off, size: size}
}

// fill reads on until n unparsed bytes are buffered. io.EOF means the
// input ended first, with fewer than n (possibly none) buffered.
func (r *FrameReader) fill(n int) error {
	for len(r.buf)-r.next < n {
		if r.size >= 0 && cap(r.buf)-r.next < n || len(r.buf) == cap(r.buf) {
			rest := r.buf[r.next:]
			// A file's remaining bytes bound what is still to come. A
			// stream's blocks start at 4 KiB and double up to the block
			// size, and a frame longer than that grows with the bytes of
			// it that came already.
			c := max(min(r.block, max(4<<10, 2*cap(r.buf))), min(n, 2*len(rest)))
			if r.size >= 0 {
				c = max(n, int(min(r.size-r.off, int64(r.block))))
			}
			r.buf = make([]byte, len(rest), c)
			copy(r.buf, rest)
			r.next = 0
		}
		m, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+m]
		if err != nil && m == 0 {
			return err
		}
	}
	return nil
}

// holds reports whether n more bytes lie between the read position and
// the end of the file, looking at the file again only when the size it
// last saw says no. A stream may hold anything.
func (r *FrameReader) holds(n int64) bool {
	if r.size < 0 || r.off+n <= r.size {
		return true
	}
	if fi, err := r.r.(*os.File).Stat(); err == nil {
		r.size = fi.Size()
	}
	return r.off+n <= r.size
}

// Frame returns the frame at the read position and that position.
// io.EOF is a clean end on a frame boundary, a tornFrameError a frame
// the input does not hold in full (over a file decided from the length,
// before the payload is asked for), ErrFrameChecksum a complete frame
// that fails its CRC. The payload is the caller's to keep.
func (r *FrameReader) Frame() (kind byte, payload []byte, off int64, err error) {
	off = r.off
	// A frame header is its kind, a length of at most ten bytes and the
	// checksum; near the end of the input there may be less to look at,
	// and at the end nothing.
	const maxHeader = 1 + binary.MaxVarintLen64 + 4
	if err := r.fill(maxHeader); err != nil && (err != io.EOF || len(r.buf) == r.next) {
		return 0, nil, off, err
	}
	head := r.buf[r.next:]
	kind = head[0]
	plen, w := binary.Uvarint(head[1:])
	if w <= 0 {
		return 0, nil, off, tornFrameError("frame length cut short")
	}
	n := 1 + w + 4 // up to the payload
	if plen > maxFrameBytes || !r.holds(int64(n)+int64(plen)) {
		return 0, nil, off, tornFrameError(fmt.Sprintf("frame length %d exceeds file", plen))
	}
	if err := r.fill(n + int(plen)); err != nil {
		return 0, nil, off, tornFrameError("frame cut short")
	}
	head = r.buf[r.next:]
	sum := binary.LittleEndian.Uint32(head[1+w:])
	payload = head[n : n+int(plen) : n+int(plen)]
	r.next += n + int(plen)
	r.off += int64(n) + int64(plen)
	if crc32.Update(kindCRC[kind], crcTable, payload) != sum {
		return 0, nil, off, ErrFrameChecksum
	}
	r.frames++
	return kind, payload, off, nil
}
