package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/store"
)

// hostileStream is 45 bytes that claim gigabytes: a stream header, a
// unit header claiming 2^24 records, a record frame claiming a 2^30-byte
// payload, then 10 bytes of it.
func hostileStream() []byte {
	b := append([]byte(streamMagic), streamVersion)
	b = binary.LittleEndian.AppendUint64(b, 0)
	hdr := binary.AppendUvarint([]byte{0, 0}, 1<<24)
	b = append(store.AppendFrameHeader(b, frameUnit, hdr), hdr...)
	b = append(b, frameRec)
	b = binary.AppendUvarint(b, 1<<30)
	b = append(b, 0, 0, 0, 0)
	return append(b, make([]byte, 10)...)
}

// readAll drains a tail stream, returning its units and the error (or
// nil after the end frame) it stopped on.
func readAll(stream []byte) ([]Unit, error) {
	tr, err := NewTailReader(bytes.NewReader(stream))
	if err != nil {
		return nil, err
	}
	var units []Unit
	for {
		u, end, err := tr.Next()
		if err != nil || end != nil {
			return units, err
		}
		units = append(units, *u)
	}
}

// allocated reports the bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTailReaderHeadersDoNotSizeAllocations: what a header claims is
// not what the reader allocates — the 45-byte stream is a torn stream
// and costs the reader less than a MiB.
func TestTailReaderHeadersDoNotSizeAllocations(t *testing.T) {
	stream := hostileStream()
	if len(stream) != 45 {
		t.Fatalf("stream is %d bytes, want 45", len(stream))
	}
	var err error
	n := allocated(func() { _, err = readAll(stream) })
	if !errors.Is(err, ErrTornStream) {
		t.Fatalf("err = %v, want ErrTornStream", err)
	}
	if n >= 1<<20 {
		t.Fatalf("reading 45 bytes allocated %d bytes", n)
	}
}

// fuzzUnits derives a unit list from spec: per unit a byte whose low two
// bits are its record count and whose bit 2 names it, then per record a
// length byte (mod 16) and that many payload bytes.
func fuzzUnits(spec []byte) []Unit {
	var units []Unit
	start := uint64(0)
	for len(spec) > 0 {
		u := Unit{Start: start, Payloads: [][]byte{}}
		n := int(spec[0] & 3)
		if spec[0]&4 != 0 {
			u.ID = fmt.Sprintf("b-%d", len(units))
		}
		spec = spec[1:]
		for i := 0; i < n; i++ {
			p := []byte{}
			if len(spec) > 0 {
				l := min(int(spec[0]&15), len(spec)-1)
				p, spec = append(p, spec[1:1+l]...), spec[1+l:]
			}
			u.Payloads = append(u.Payloads, p)
		}
		if n == 0 && u.ID == "" {
			u.Payloads = [][]byte{{}}
		}
		units = append(units, u)
		start += uint64(len(u.Payloads))
	}
	return units
}

// writeStream is TailWriter's stream of units, and the offset at which
// each unit's last frame ends.
func writeStream(t testing.TB, units []Unit) ([]byte, []int) {
	var buf bytes.Buffer
	tw, err := NewTailWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, len(units))
	for i, u := range units {
		if err := tw.Unit(u.Start, u.ID, u.Payloads); err != nil {
			t.Fatal(err)
		}
		tw.w.Flush()
		ends[i] = buf.Len()
	}
	if err := tw.End(uint64(len(units)), 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ends
}

// FuzzTailReader cuts a TailWriter stream of fuzzer-chosen units at a
// fuzzer-chosen byte and continues it with fuzzer bytes. The reader must
// not panic, must allocate no more than the bytes it was given justify,
// must return every unit that lies wholly before the cut unchanged, and
// those units' payloads must stay unchanged while it reads on. The
// committed corpus, the 45-byte hostile stream among it, replays in
// plain go test.
func FuzzTailReader(f *testing.F) {
	f.Add([]byte{0x06, 3, 'a', 'b', 'c', 0, 0x01, 2, 0xff, 0xfe}, uint16(0xffff), []byte(nil))
	f.Add([]byte{0x06, 3, 'a', 'b', 'c', 0, 0x01, 2, 0xff, 0xfe}, uint16(30), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, spec []byte, cut uint16, tail []byte) {
		units := fuzzUnits(spec)
		full, ends := writeStream(t, units)
		stream := full
		if int(cut) < len(full) {
			stream = append(full[:cut:cut], tail...)
		}
		// The reader's own allocations, a unit's header among them, are
		// measured apart from the test's bookkeeping.
		if n := allocated(func() { readAll(stream) }); n > uint64(1<<20+16*len(stream)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(stream), n)
		}
		var (
			got    []Unit
			kept   [][]byte
			copies [][]byte
		)
		tr, err := NewTailReader(bytes.NewReader(stream))
		for err == nil {
			var u *Unit
			var end *End
			if u, end, err = tr.Next(); err != nil || end != nil {
				break
			}
			got = append(got, *u)
			for _, p := range u.Payloads {
				kept = append(kept, p)
				copies = append(copies, bytes.Clone(p))
			}
		}
		for i := range kept {
			if !bytes.Equal(kept[i], copies[i]) {
				t.Fatalf("payload %d changed after later reads", i)
			}
		}
		whole := len(units)
		if int(cut) < len(full) {
			whole = 0
			for whole < len(units) && ends[whole] <= int(cut) {
				whole++
			}
			if len(tail) == 0 && int(cut) >= 13 && !errors.Is(err, ErrTornStream) {
				t.Fatalf("stream cut at %d of %d: err %v, want ErrTornStream", cut, len(full), err)
			}
		} else if err != nil || len(got) != len(units) {
			t.Fatalf("whole stream: %d of %d units, err %v", len(got), len(units), err)
		}
		if int(cut) >= 13 && (len(got) < whole || len(tail) == 0 && len(got) != whole) {
			t.Fatalf("%d units before the cut at %d, reader returned %d (err %v)", whole, cut, len(got), err)
		}
		for i := 0; i < whole && i < len(got); i++ {
			if !reflect.DeepEqual(got[i], units[i]) {
				t.Fatalf("unit %d = %+v, want %+v", i, got[i], units[i])
			}
		}
	})
}
