package dataset

import "unsafe"

// Arena allocators for the ingest hot path. Records flow through the
// pipeline at hundreds of thousands per second; giving each one its own
// string/slice allocations makes the garbage collector the bottleneck
// long before the CPU. The arenas below hand out memory from large
// chunks with a bump pointer, so the per-record allocation count drops
// to the amortized chunk rate (one malloc per few thousand records).
//
// Safety model: a chunk is append-only — once a span is handed out it
// is never rewritten or moved (a full chunk is abandoned, never grown
// in place), so strings built over arena bytes with unsafe.String are
// as immutable as ordinary Go strings. Abandoned chunks are garbage
// collected once every record referencing them dies; retained records
// (the slab store) pin exactly the chunks backing their data, which is
// the same retention the old per-record allocations had.
//
// Arenas are single-owner: each Decoder and each RecordStore embeds its
// own, serialized by the owner's existing usage contract. Ownership may
// pass on — GetDecoder hands a Decoder some earlier request returned —
// because the model above never depended on who appends next: the new
// owner fills the chunk from where the last one stopped, inside no span
// that was handed out, so records of the earlier request stay as they
// were for as long as anything holds them.

// Chunk sizing: big enough to amortize the malloc to noise, small
// enough that an abandoned tail wastes little.
const (
	byteArenaChunk  = 64 << 10 // string bytes
	sliceArenaChunk = 4 << 10  // slice-header/element arenas, in elements
)

// byteArena hands out immutable strings backed by large shared chunks.
type byteArena struct {
	buf []byte // current chunk; len = fill point, cap = chunk size
}

// intern copies b into the arena and returns it as a string, without a
// per-call allocation (amortized: one chunk allocation per
// byteArenaChunk bytes interned).
func (a *byteArena) intern(b []byte) string {
	return a.copyString(unsafe.String(unsafe.SliceData(b), len(b)))
}

// copyString is intern for a string: the copy lives in the arena, so it
// pins nothing of the memory s came from.
func (a *byteArena) copyString(s string) string {
	n := len(s)
	if n == 0 {
		return ""
	}
	if len(a.buf)+n > cap(a.buf) {
		size := byteArenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]byte, 0, size)
	}
	off := len(a.buf)
	a.buf = append(a.buf, s...)
	return unsafe.String(&a.buf[off], n)
}

// Arena hands out fixed-length []T spans from large shared chunks.
// Spans are returned with len == cap == n, so a caller-side append
// copies out instead of writing into the neighbouring span. Exported
// because other hot paths (per-worker classification in analysis) need
// the same amortization; the zero value is ready to use. Not safe for
// concurrent use.
type Arena[T any] struct {
	buf []T
}

// Alloc returns a zeroed span of n elements. n must be > 0.
func (a *Arena[T]) Alloc(n int) []T {
	if len(a.buf)+n > cap(a.buf) {
		size := sliceArenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]T, 0, size)
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off+n : off+n]
}
