package dataset

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func sampleRecords(n int) []Record {
	start := time.Date(2023, 5, 1, 10, 0, 0, 0, time.UTC)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			From:            "a@s.example",
			To:              "b@r.example",
			StartTime:       start.Add(time.Duration(i) * time.Minute),
			EndTime:         start.Add(time.Duration(i)*time.Minute + 2*time.Second),
			FromIP:          []string{"192.0.2.1"},
			ToIP:            []string{"198.51.100.9"},
			DeliveryResult:  []string{"250 2.0.0 OK"},
			DeliveryLatency: []int64{1500},
			EmailFlag:       "Normal",
		}
	}
	return out
}

// collect drains src into a slice.
func collect(src RecordSource) []Record {
	var out []Record
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, *r)
	}
}

func TestSliceSourceCollectRoundTrip(t *testing.T) {
	recs := sampleRecords(5)
	got := collect(NewSliceSource(recs))
	if len(got) != len(recs) {
		t.Fatalf("collected %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if !got[i].StartTime.Equal(recs[i].StartTime) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestPipePreservesOrderAcrossGoroutines(t *testing.T) {
	recs := sampleRecords(100)
	p := NewPipe(4) // smaller than the record count to exercise blocking
	go func() {
		for i := range recs {
			p.Write(&recs[i])
		}
		p.Close()
	}()
	got := collect(p)
	if len(got) != len(recs) {
		t.Fatalf("pipe delivered %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if !got[i].StartTime.Equal(recs[i].StartTime) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// encodeJSONL renders records as a JSONL byte slice.
func encodeJSONL(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadAllMalformedLineMidStreamIsLineNumbered(t *testing.T) {
	lines := encodeJSONL(t, sampleRecords(3))
	corrupt := bytes.Join([][]byte{
		bytes.TrimSuffix(lines, []byte("\n")),
		[]byte("{definitely not json}"),
		[]byte(""),
	}, []byte("\n"))
	recs, err := ReadAll(bytes.NewReader(corrupt))
	if err == nil || recs != nil {
		t.Fatalf("ReadAll = %d records, %v; want no records and an error", len(recs), err)
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %q does not name line 4", err)
	}
}

func TestOpenDecodesGzipByMagicBytes(t *testing.T) {
	recs := sampleRecords(9)
	raw := encodeJSONL(t, recs)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Deliberately misleading extension: sniffing must win over names.
	path := filepath.Join(dir, "dataset.jsonl")
	if err := os.WriteFile(path, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenParallel(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := collect(src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records from gzip file, want %d", len(got), len(recs))
	}

	plain, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(recs) {
		t.Fatalf("ReadFile decoded %d records from gzip file, want %d", len(plain), len(recs))
	}
}

func TestReadAllTruncatedGzipSurfacesError(t *testing.T) {
	raw := encodeJSONL(t, sampleRecords(50))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	trunc := gz.Bytes()[:gz.Len()/2]
	r, err := NewDecodingReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(r); err == nil || !strings.Contains(err.Error(), "line") {
		t.Fatalf("truncated gzip stream: error %v carries no line position", err)
	}
}

func TestPipeCloseReadUnblocksWriter(t *testing.T) {
	recs := sampleRecords(4)
	p := NewPipe(1)
	if err := p.Write(&recs[0]); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		// Buffer is full: this write blocks until CloseRead aborts it.
		errc <- p.Write(&recs[1])
	}()
	p.CloseRead()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosedPipe) {
			t.Fatalf("blocked write returned %v, want ErrClosedPipe", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write stayed blocked after CloseRead")
	}
	if err := p.Write(&recs[2]); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("write after CloseRead returned %v, want ErrClosedPipe", err)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("Next returned a record after CloseRead")
	}
	p.CloseRead() // idempotent
}

// TestPipeWriteAfterCloseErrors pins the write-side close semantics: a
// Write landing after Close must fail with ErrClosedPipe — not panic,
// not enqueue — while records accepted before the close stay readable.
func TestPipeWriteAfterCloseErrors(t *testing.T) {
	recs := sampleRecords(3)
	p := NewPipe(4)
	if err := p.Write(&recs[0]); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.Write(&recs[1]); !errors.Is(err, ErrClosedPipe) {
		t.Fatalf("write after Close returned %v, want ErrClosedPipe", err)
	}
	got := collect(p)
	if len(got) != 1 || !got[0].StartTime.Equal(recs[0].StartTime) {
		t.Fatalf("drained %d records after Close, want the 1 accepted", len(got))
	}
	p.Close() // idempotent
}

// TestPipeCloseVsWriteRace hammers the shutdown ordering the drain
// path depends on: writers blocked on a full buffer when the pipe
// closes (from either side) must wake with ErrClosedPipe, and every
// write must either error or have its record observed by the consumer
// — no deadlock, no silent loss. Run under -race.
func TestPipeCloseVsWriteRace(t *testing.T) {
	recs := sampleRecords(8)
	for round := 0; round < 200; round++ {
		p := NewPipe(2)
		const writers = 4
		var wrote atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < len(recs); i++ {
					if err := p.Write(&recs[i]); err != nil {
						if !errors.Is(err, ErrClosedPipe) {
							t.Errorf("write: %v", err)
						}
						return
					}
					wrote.Add(1)
				}
			}(w)
		}
		var read int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				if _, ok := p.Next(); !ok {
					return
				}
				read++
				if i == round%5 {
					// Abort mid-stream: blocked writers must not hang.
					p.CloseRead()
				}
			}
		}()
		wg.Wait()
		p.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("consumer deadlocked after close")
		}
		// CloseRead discards buffered records, so read <= wrote always;
		// every successful Write before the abort was either consumed or
		// discarded deliberately — never stranded with a blocked writer.
		if read > wrote.Load() {
			t.Fatalf("read %d > wrote %d", read, wrote.Load())
		}
	}
}

// TestPipeZeroLossWhenProducerCloses checks the cooperative shutdown
// direction: if only the producer closes (no CloseRead), every
// accepted record reaches the consumer.
func TestPipeZeroLossWhenProducerCloses(t *testing.T) {
	recs := sampleRecords(16)
	p := NewPipe(3)
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range recs {
				if err := p.Write(&recs[i]); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				wrote.Add(1)
			}
		}()
	}
	go func() {
		wg.Wait()
		p.Close()
	}()
	got := collect(p)
	if int64(len(got)) != wrote.Load() {
		t.Fatalf("consumed %d records, wrote %d", len(got), wrote.Load())
	}
}

func TestContextSourceStopsOnCancel(t *testing.T) {
	recs := sampleRecords(10)
	ctx, cancel := context.WithCancel(context.Background())
	src := NewContextSource(ctx, NewSliceSource(recs))
	for i := 0; i < 3; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("source dried up at record %d before cancel", i)
		}
	}
	cancel()
	if _, ok := src.Next(); ok {
		t.Fatal("source kept yielding after cancel")
	}
	if !errors.Is(src.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", src.Err())
	}
}

func TestRankFromCountsMatchesInEmailRank(t *testing.T) {
	recs := sampleRecords(6)
	recs[0].To = "x@dom-a.example"
	recs[1].To = "x@dom-a.example"
	recs[2].To = "x@dom-b.example"
	want := InEmailRank(recs)
	counts := map[string]int{}
	for i := range recs {
		counts[recs[i].ToDomain()]++
	}
	got := RankFromCounts(counts)
	if len(got) != len(want) {
		t.Fatalf("rank length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("rank row %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
