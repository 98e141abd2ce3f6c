package dataset

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestByteArenaInternIsolation(t *testing.T) {
	var a byteArena
	src := []byte("hello arena")
	s := a.intern(src)
	src[0] = 'X' // caller clobbers its buffer
	if s != "hello arena" {
		t.Fatalf("interned string aliased the source: %q", s)
	}
	if a.intern(nil) != "" || a.intern([]byte{}) != "" {
		t.Fatal("empty intern should return the empty string")
	}
	// Spanning a chunk boundary must not corrupt earlier strings.
	first := a.intern([]byte("pinned"))
	big := make([]byte, byteArenaChunk)
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	huge := a.intern(big)
	if first != "pinned" {
		t.Fatalf("chunk rollover corrupted earlier string: %q", first)
	}
	if len(huge) != byteArenaChunk || huge[0] != 'a' {
		t.Fatal("oversized intern mangled")
	}
}

func TestSliceArenaSpansAreCapped(t *testing.T) {
	var a Arena[int64]
	x := a.Alloc(3)
	copy(x, []int64{1, 2, 3})
	y := a.Alloc(2)
	copy(y, []int64{9, 9})
	// x has len==cap==3: appending must copy out, not write into y.
	x = append(x, 42)
	if y[0] != 9 || y[1] != 9 {
		t.Fatalf("append through a capped span clobbered its neighbour: %v", y)
	}
	if x[3] != 42 {
		t.Fatal("append lost the new element")
	}
}

// TestRecordStoreAppendCopyIsolation pins AppendCopy's contract: the
// stored record survives the caller clobbering its struct fields and
// slice backings, and nil-vs-empty slice identity is preserved.
func TestRecordStoreAppendCopyIsolation(t *testing.T) {
	var s RecordStore
	rec := Record{
		From:            "a@x.com",
		To:              "b@y.com",
		StartTime:       time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC),
		EndTime:         time.Date(2024, 1, 2, 3, 4, 6, 0, time.UTC),
		FromIP:          []string{"1.1.1.1"},
		ToIP:            nil,
		DeliveryResult:  []string{"250 ok", "451 try again"},
		DeliveryLatency: []int64{10, 20},
		EmailFlag:       "normal",
	}
	want := rec.Clone()
	s.AppendCopy(&rec)
	rec.To = "clobbered@evil.com"
	rec.FromIP[0] = "6.6.6.6"
	rec.DeliveryResult[0] = "599 clobbered"
	rec.DeliveryLatency[0] = -1

	got := s.View().At(0)
	if got.To != want.To || !reflect.DeepEqual(got.FromIP, want.FromIP) ||
		!reflect.DeepEqual(got.DeliveryResult, want.DeliveryResult) ||
		!reflect.DeepEqual(got.DeliveryLatency, want.DeliveryLatency) {
		t.Fatalf("stored record aliased caller slices: got %+v want %+v", got, want)
	}

	// nil stays nil, non-nil empty stays non-nil empty.
	s.AppendCopy(&Record{FromIP: []string{}, DeliveryLatency: []int64{}})
	e := s.View().At(1)
	if e.ToIP != nil || e.DeliveryResult != nil {
		t.Fatal("nil slices must stay nil")
	}
	if e.FromIP == nil || len(e.FromIP) != 0 || e.DeliveryLatency == nil || len(e.DeliveryLatency) != 0 {
		t.Fatal("empty slices must stay non-nil empty")
	}
}

// TestRecordStoreAppendCopyNeighbours: consecutive appends draw from
// the same arena chunks; writing through one record's slices must never
// have been possible to begin with (spans are full-cap), and the spans
// must hold distinct data.
func TestRecordStoreAppendCopyNeighbours(t *testing.T) {
	var s RecordStore
	const n = 10 * slabSize / 8 // force several slab and chunk rollovers
	for i := 0; i < n; i++ {
		rec := Record{
			To:              fmt.Sprintf("u%d@d%d.com", i, i%7),
			DeliveryResult:  []string{fmt.Sprintf("451 defer %d", i), fmt.Sprintf("250 ok %d", i)},
			DeliveryLatency: []int64{int64(i), int64(2 * i)},
		}
		s.AppendCopy(&rec)
	}
	v := s.View()
	for i := 0; i < n; i++ {
		r := v.At(i)
		if r.DeliveryResult[0] != fmt.Sprintf("451 defer %d", i) ||
			r.DeliveryLatency[1] != int64(2*i) {
			t.Fatalf("record %d holds neighbour data: %+v", i, r)
		}
	}
}

// TestRecordStoreInternsByValue: equal values share one stored copy,
// and values that differ in any one byte do not, at every length from
// 1 to 40 bytes.
func TestRecordStoreInternsByValue(t *testing.T) {
	var s RecordStore
	var values []string
	for n := 1; n <= 40; n++ {
		base := []byte(strings.Repeat("a", n))
		values = append(values, string(base))
		for i := range base {
			v := bytes.Clone(base)
			v[i] = 'b'
			values = append(values, string(v))
		}
	}
	first := map[string]*byte{}
	for round := 0; round < 2; round++ {
		for _, v := range values {
			got := s.AppendCopy(&Record{From: strings.Clone(v)}).From
			if got != v {
				t.Fatalf("stored %q for %q", got, v)
			}
			p := unsafe.StringData(got)
			if q, ok := first[v]; !ok {
				first[v] = p
			} else if p != q {
				t.Fatalf("%q stored twice", v)
			}
		}
	}
	seen := map[*byte]string{}
	for v, p := range first {
		if w, ok := seen[p]; ok {
			t.Fatalf("%q and %q share one copy", v, w)
		}
		seen[p] = v
	}
}

// TestPooledDecoderKeepsEarlierRecords is the aliasing regression the
// decoder pool must never cause: records decoded for one request stay
// as they were after the Decoder went back to the pool and decoded the
// next request's — on this goroutine or, under -race, on another. Each
// "request" takes a Decoder, decodes a few records it keeps, and returns
// the Decoder; every record kept is checked at the end against a second
// encoding of what it was decoded from.
func TestPooledDecoderKeepsEarlierRecords(t *testing.T) {
	const workers, rounds, perRound = 2, 60, 40
	src := varied(workers * rounds * perRound)
	lines := make([][]byte, len(src))
	for i := range src {
		lines[i] = src[i].AppendJSON(nil)
	}
	kept := make([]Record, len(src))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				d := GetDecoder()
				base := (w*rounds + round) * perRound
				for i := base; i < base+perRound; i++ {
					if err := d.Decode(lines[i], &kept[i]); err != nil {
						t.Errorf("record %d: %v", i, err)
					}
				}
				PutDecoder(d)
			}
		}(w)
	}
	wg.Wait()
	for i := range kept {
		if !reflect.DeepEqual(kept[i], src[i]) {
			t.Fatalf("record %d changed after its decoder was reused:\n got %+v\nwant %+v", i, kept[i], src[i])
		}
	}

	// The same, with the reuse spelled out rather than left to the pool.
	d := GetDecoder()
	var a, b Record
	if err := d.Decode(lines[1], &a); err != nil {
		t.Fatal(err)
	}
	PutDecoder(d)
	d = GetDecoder()
	if err := d.Decode(lines[6], &b); err != nil {
		t.Fatal(err)
	}
	PutDecoder(d)
	if !reflect.DeepEqual(a, src[1]) || !reflect.DeepEqual(b, src[6]) {
		t.Fatalf("decode A, put, get, decode B: A = %+v, B = %+v", a, b)
	}
}
