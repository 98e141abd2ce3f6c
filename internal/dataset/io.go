package dataset

import (
	"bufio"
	"io"
	"os"
	"sort"
)

// Writer streams records as JSON Lines.
type Writer struct {
	bw   *bufio.Writer
	line []byte
	n    int
}

// NewWriter wraps w for JSONL output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write appends one record line.
func (w *Writer) Write(r *Record) error {
	w.n++
	w.line = append(r.AppendJSON(w.line[:0]), '\n')
	_, err := w.bw.Write(w.line)
	return err
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteFile writes all records to path as JSONL.
func WriteFile(path string, records []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	for i := range records {
		if err := w.Write(&records[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAll parses every JSONL record from r — a ParallelReader drained,
// so its line rules are the only ones.
func ReadAll(r io.Reader) ([]Record, error) {
	p := NewParallelReader(r, 0)
	defer p.Close()
	var out []Record
	for {
		recs, ok := p.NextBatch()
		if !ok {
			break
		}
		out = append(out, recs...)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFile parses a JSONL dataset file, transparently decoding gzip
// input (sniffed by magic bytes, not extension).
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := NewDecodingReader(f)
	if err != nil {
		return nil, err
	}
	return ReadAll(r)
}

// RankEntry is one InEmailRank row.
type RankEntry struct {
	Domain string
	Emails int
}

// InEmailRank builds the receiver-domain popularity list the paper uses
// throughout ("we build a popularity ranking list based on the number
// of incoming emails for receiver domains").
func InEmailRank(records []Record) []RankEntry {
	counts := map[string]int{}
	for i := range records {
		counts[records[i].ToDomain()]++
	}
	return RankFromCounts(counts)
}

// RankFromCounts builds the popularity list from per-domain email
// counts accumulated incrementally (e.g. while streaming records).
func RankFromCounts(counts map[string]int) []RankEntry {
	out := make([]RankEntry, 0, len(counts))
	for d, n := range counts {
		out = append(out, RankEntry{Domain: d, Emails: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Emails != out[j].Emails {
			return out[i].Emails > out[j].Emails
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}
