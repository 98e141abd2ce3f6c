package dataset

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// varied returns records exercising the full schema surface: empty and
// missing arrays, spam flags, multi-attempt histories, odd characters.
func varied(n int) []Record {
	start := time.Date(2022, 6, 14, 8, 0, 0, 0, time.UTC)
	out := make([]Record, n)
	for i := range out {
		r := Record{
			From:            fmt.Sprintf("u%d@sender%d.example", i, i%7),
			To:              fmt.Sprintf("v%d@rcpt%d.example", i, i%13),
			StartTime:       start.Add(time.Duration(i) * time.Second),
			EndTime:         start.Add(time.Duration(i)*time.Second + time.Minute),
			FromIP:          []string{"5.0.0.1"},
			ToIP:            []string{"20.0.0.9"},
			DeliveryResult:  []string{"550 5.1.1 User unknown: mailbox häßlich <x@y> not found"},
			DeliveryLatency: []int64{int64(i * 11)},
			EmailFlag:       "Normal",
		}
		switch i % 5 {
		case 1:
			r.DeliveryResult = []string{"421 4.7.0 Try again later", "250 2.0.0 OK"}
			r.FromIP = []string{"5.0.0.1", "5.0.0.2"}
			r.ToIP = []string{"20.0.0.9", "20.0.0.9"}
			r.DeliveryLatency = []int64{840, 120}
			r.EmailFlag = "Spam"
		case 2:
			r.FromIP, r.ToIP, r.DeliveryResult, r.DeliveryLatency = nil, nil, nil, nil
		case 3:
			r.ToIP = []string{""}
		}
		out[i] = r
	}
	return out
}

// TestDecoderMatchesUnmarshal differentially checks the fast path (and
// its fallback) against encoding/json on a table of edge cases.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	lines := []string{
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","from_ip":["5.0.0.1"],"to_ip":["20.0.0.1"],"delivery_result":["550 no"],"delivery_latency":[54854],"email_flag":"Spam"}`,
		// whitespace everywhere
		` { "from" : "a@x.com" , "to" : "b@y.com" , "start_time" : "2022-06-14 16:30:35" , "end_time" : "2022-06-14 16:45:19" , "from_ip" : [ "5.0.0.1" , "5.0.0.2" ] , "to_ip" : [ ] , "delivery_result" : null , "delivery_latency" : [ 1 , -2 ] , "email_flag" : "" } `,
		// escape sequences, decoded on the fast path
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","delivery_result":["550 \"quoted\" text\\path\nline\t<x@y> é"],"email_flag":"Normal"}`,
		// surrogate pair, lone surrogate, and an invalid escape
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","delivery_result":["ok 😀 <x@y> A end"],"email_flag":"Normal"}`,
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","delivery_result":["lone \ud83d tail","pairless \ud83dx"],"email_flag":"Normal"}`,
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","delivery_result":["bad \x escape"]}`,
		// raw UTF-8 stays on the fast path
		`{"from":"å@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","delivery_result":["452 böx füll"],"email_flag":"Normal"}`,
		// empty arrays vs null vs absent
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","from_ip":[],"to_ip":null,"delivery_latency":[]}`,
		// unknown key falls back (and is ignored there)
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","bogus":7}`,
		// duplicate key: last wins in both paths
		`{"from":"first@x.com","from":"second@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19"}`,
		// errors: bad JSON, bad timestamp, impossible date, bad latency
		`{"from":}`,
		`not json at all`,
		`{"from":"a@x.com","to":"b@y.com","start_time":"yesterday","end_time":"2022-06-14 16:45:19"}`,
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-02-30 16:30:35","end_time":"2022-06-14 16:45:19"}`,
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19","delivery_latency":[1.5]}`,
		`{"from":"a@x.com","to":"b@y.com","end_time":"2022-06-14 16:45:19"}`,
		`{"from":"a@x.com","to":"b@y.com","start_time":"2022-06-14 16:30:35","end_time":"2022-06-14 16:45:19"} trailing`,
	}
	var d Decoder
	for i, line := range lines {
		var want Record
		wantErr := json.Unmarshal([]byte(line), &want)
		var got Record
		gotErr := d.Decode([]byte(line), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("line %d: error mismatch: stdlib %v, decoder %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Errorf("line %d: error text mismatch:\nstdlib:  %v\ndecoder: %v", i, wantErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("line %d: record mismatch:\nstdlib:  %+v\ndecoder: %+v", i, want, got)
		}
		// Nil-ness must match too: MarshalJSON emits null vs [].
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("line %d: re-marshal mismatch:\nstdlib:  %s\ndecoder: %s", i, wb, gb)
		}
	}
}

func TestDecoderRoundTripsVaried(t *testing.T) {
	var d Decoder
	for i, want := range varied(200) {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := d.Decode(b, &got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestDecoderNoScratchAliasing: records must stay valid after the
// decoder processes further lines (the scratch is per-call).
func TestDecoderNoScratchAliasing(t *testing.T) {
	recs := varied(20)
	raws := make([][]byte, len(recs))
	for i := range recs {
		raws[i], _ = json.Marshal(recs[i])
	}
	var d Decoder
	got := make([]Record, len(recs))
	for i, raw := range raws {
		if err := d.Decode(raw, &got[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d mutated by later decodes", i)
		}
	}
}

// Test sizing: records from varied() are ~230 bytes, so testChunkLines
// of them span several testBlock-sized blocks — every boundary path is
// exercised with a small corpus.
const (
	testChunkLines = 256
	testBlock      = 8 << 10
)

func parallelDecodeAll(t *testing.T, data []byte, workers int) ([]Record, error) {
	t.Helper()
	p := newParallelReaderSize(bytes.NewReader(data), workers, testBlock)
	defer p.Close()
	var out []Record
	for {
		rec, ok := p.Next()
		if !ok {
			break
		}
		out = append(out, rec.Clone())
	}
	return out, p.Err()
}

// serialDecode is the reference ParallelReader is held to: a
// bufio.Scanner over r (ScanLines, the 16 MiB limit), blank lines
// numbered and skipped, each line decoded on the caller's goroutine. It
// returns the records, the number of the last line consumed, and the
// first failure as a *LineError.
func serialDecode(r io.Reader) ([]Record, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), maxLineBytes)
	var (
		dec  Decoder
		out  []Record
		line int
	)
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := dec.Decode(sc.Bytes(), &rec); err != nil {
			return out, line, &LineError{Line: line, Err: err}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, line, &LineError{Line: line, After: true, Err: err}
	}
	return out, line, nil
}

// TestParallelReaderWorkerInvariance: 1, 4, and 16 workers must yield a
// record sequence identical to the serial reference.
func TestParallelReaderWorkerInvariance(t *testing.T) {
	recs := varied(3 * testChunkLines) // several chunks
	data := encodeJSONL(t, recs)
	want, _, err := serialDecode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := parallelDecodeAll(t, data, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sequence differs from serial decode", workers)
		}
	}
}

// TestParallelReaderMalformedMidChunk: a bad line deep in the second
// chunk must surface the correct global line number, after yielding
// every record before it.
func TestParallelReaderMalformedMidChunk(t *testing.T) {
	recs := varied(2*testChunkLines + 50)
	data := encodeJSONL(t, recs)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	badAt := testChunkLines + 100 // 1-based line number inside chunk 2
	lines[badAt-1] = []byte(`{"from": broken`)
	data = append(bytes.Join(lines, []byte("\n")), '\n')

	for _, workers := range []int{1, 4, 16} {
		got, err := parallelDecodeAll(t, data, workers)
		if len(got) != badAt-1 {
			t.Fatalf("workers=%d: got %d records before error, want %d", workers, len(got), badAt-1)
		}
		var le *LineError
		if !errors.As(err, &le) {
			t.Fatalf("workers=%d: error %v is not a LineError", workers, err)
		}
		if le.Line != badAt {
			t.Fatalf("workers=%d: error line %d, want %d", workers, le.Line, badAt)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("line %d", badAt)) {
			t.Fatalf("workers=%d: error %q does not name line %d", workers, err, badAt)
		}
	}
}

// TestParallelReaderTruncatedFinalLine: a record cut off mid-object is
// a decode error on the last line.
func TestParallelReaderTruncatedFinalLine(t *testing.T) {
	recs := varied(10)
	data := encodeJSONL(t, recs)
	data = data[:len(data)-20] // chop into the final JSON object
	got, err := parallelDecodeAll(t, data, 4)
	if len(got) != 9 {
		t.Fatalf("got %d records, want 9", len(got))
	}
	var le *LineError
	if !errors.As(err, &le) || le.Line != 10 {
		t.Fatalf("want LineError on line 10, got %v", err)
	}
}

// TestParallelReaderReadError: a truncated gzip stream must behave
// exactly like the serial reference over the same bytes — same
// record count, same error line, same torn-line/truncated-tail
// classification. (The cut usually lands mid-line, which both readers
// report as a decode error on that line; the parallel reader used to
// drop the whole partial chunk and report an after-line error a chunk
// early instead.)
func TestParallelReaderReadError(t *testing.T) {
	recs := varied(40)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(encodeJSONL(t, recs))
	zw.Close()
	trunc := zbuf.Bytes()[:zbuf.Len()-30]

	serialRd, err := NewDecodingReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	want, wantLine, serialErr := serialDecode(serialRd)
	var wantLE *LineError
	if !errors.As(serialErr, &wantLE) {
		t.Fatalf("serial error %v is not a LineError", serialErr)
	}

	for _, workers := range []int{1, 4, 16} {
		rd, err := NewDecodingReader(bytes.NewReader(trunc))
		if err != nil {
			t.Fatal(err)
		}
		p := newParallelReaderSize(rd, workers, testBlock)
		got := collect(p)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, serial got %d", workers, len(got), len(want))
		}
		var le *LineError
		if !errors.As(p.Err(), &le) {
			t.Fatalf("workers=%d: error %v is not a LineError", workers, p.Err())
		}
		if le.Line != wantLE.Line || le.After != wantLE.After {
			t.Fatalf("workers=%d: error at line %d (after=%v), serial at line %d (after=%v)",
				workers, le.Line, le.After, wantLE.Line, wantLE.After)
		}
		if p.Line() != wantLine {
			t.Fatalf("workers=%d: Line()=%d, serial Line()=%d", workers, p.Line(), wantLine)
		}
		p.Close()
	}
}

// cutReader yields exactly n bytes of r, then fails with errTorn —
// precise control over where a stream tears relative to line framing.
type cutReader struct {
	r    io.Reader
	left int
}

var errTorn = errors.New("connection reset mid-stream")

func (c *cutReader) Read(b []byte) (int, error) {
	if c.left == 0 {
		return 0, errTorn
	}
	if len(b) > c.left {
		b = b[:c.left]
	}
	n, err := c.r.Read(b)
	c.left -= n
	return n, err
}

// TestParallelReaderTornMidChunk: a stream cut mid-line inside the
// second chunk of a gzip stream must yield every complete record
// before the cut (including the first partial chunk's worth) and
// report a decode error at the torn line's true global number.
func TestParallelReaderTornMidChunk(t *testing.T) {
	recs := varied(testChunkLines + 120)
	data := encodeJSONL(t, recs)

	// Find the byte offset 20 bytes into line (testChunkLines+50): mid-line,
	// mid-second-chunk.
	tornLine := testChunkLines + 50
	off := 0
	for i := 0; i < tornLine-1; i++ {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	cut := off + 20

	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(data)
	zw.Close()

	for _, workers := range []int{1, 4} {
		zr, err := NewDecodingReader(bytes.NewReader(zbuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		p := newParallelReaderSize(&cutReader{r: zr, left: cut}, workers, testBlock)
		got := collect(p)
		if len(got) != tornLine-1 {
			t.Fatalf("workers=%d: %d records before torn line, want %d", workers, len(got), tornLine-1)
		}
		var le *LineError
		if !errors.As(p.Err(), &le) {
			t.Fatalf("workers=%d: %v is not a LineError", workers, p.Err())
		}
		if le.Line != tornLine || le.After {
			t.Fatalf("workers=%d: error line %d after=%v, want torn-line error at %d", workers, le.Line, le.After, tornLine)
		}
		if p.Line() != tornLine {
			t.Fatalf("workers=%d: Line()=%d, want %d", workers, p.Line(), tornLine)
		}
		p.Close()
	}
}

// TestParallelReaderTruncatedTailAtBoundary: a stream cut exactly on a
// line boundary mid-chunk has no torn line — every record before the
// cut must be yielded and the read error reported after the last
// complete line, not a chunk earlier.
func TestParallelReaderTruncatedTailAtBoundary(t *testing.T) {
	recs := varied(testChunkLines + 80)
	data := encodeJSONL(t, recs)

	lastLine := testChunkLines + 40
	off := 0
	for i := 0; i < lastLine; i++ {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}

	for _, workers := range []int{1, 4} {
		p := newParallelReaderSize(&cutReader{r: bytes.NewReader(data), left: off}, workers, testBlock)
		got := collect(p)
		if len(got) != lastLine {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), lastLine)
		}
		var le *LineError
		if !errors.As(p.Err(), &le) {
			t.Fatalf("workers=%d: %v is not a LineError", workers, p.Err())
		}
		if !le.After || le.Line != lastLine {
			t.Fatalf("workers=%d: error line %d after=%v, want after-line error at %d", workers, le.Line, le.After, lastLine)
		}
		if !errors.Is(le, errTorn) {
			t.Fatalf("workers=%d: cause %v, want errTorn", workers, le.Err)
		}
		if p.Line() != lastLine {
			t.Fatalf("workers=%d: Line()=%d, want %d", workers, p.Line(), lastLine)
		}
		p.Close()
	}
}

// TestParallelReaderEarlyClose: closing mid-stream must release the
// pipeline without deadlocking, and blank lines keep global numbering.
// Close returns only once every block handed to a worker is decoded:
// with the in-order queue full, the scanner's last block is in a
// worker's hands but not in that queue when Close cancels.
func TestParallelReaderEarlyClose(t *testing.T) {
	recs := varied(40 * testChunkLines)
	data := encodeJSONL(t, recs)
	data = append([]byte("\n\n"), data...) // leading blanks shift line numbers
	for range 100 {
		p := newParallelReaderSize(bytes.NewReader(data), 4, 8*testBlock)
		rec, ok := p.Next()
		if !ok || rec == nil {
			t.Fatal("no first record")
		}
		if p.Line() != 3 {
			t.Fatalf("first record on line %d, want 3 (after two blanks)", p.Line())
		}
		p.Close()
		if p.Err() != nil {
			t.Fatalf("unexpected error after close: %v", p.Err())
		}
		buf := make([]byte, 1<<20)
		if n := bytes.Count(buf[:runtime.Stack(buf, true)], []byte("dataset.decodeChunk(")); n > 0 {
			t.Fatalf("%d blocks still decoding after Close", n)
		}
	}
}

func TestOpenParallel(t *testing.T) {
	recs := varied(120)
	dir := t.TempDir()
	path := dir + "/data.jsonl"
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	src, err := OpenParallel(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(src)
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("OpenParallel sequence differs from input")
	}
}

func BenchmarkDecoderDecode(b *testing.B) {
	raw, _ := json.Marshal(sampleRecord())
	var d Decoder
	var r Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(raw, &r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendJSON(b *testing.B) {
	r := sampleRecord()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.AppendJSON(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

func benchmarkParallelDecode(b *testing.B, workers int) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := varied(5000)
	for i := range recs {
		w.Write(&recs[i])
	}
	w.Flush()
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewParallelReader(bytes.NewReader(data), workers)
		n := 0
		for {
			if _, ok := p.Next(); !ok {
				break
			}
			n++
		}
		p.Close()
		if p.Err() != nil || n != len(recs) {
			b.Fatalf("n=%d err=%v", n, p.Err())
		}
	}
}

func BenchmarkParallelDecode1(b *testing.B) { benchmarkParallelDecode(b, 1) }
func BenchmarkParallelDecode4(b *testing.B) { benchmarkParallelDecode(b, 4) }
