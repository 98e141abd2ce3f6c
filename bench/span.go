package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Root; Parent is the span that caused this one (0 for
// the root itself). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   uint64 `json:"root"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"` // batch id, section list, …
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// is tracing switched off: every method is a no-op, so the untraced run
// pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a root span still running; children are recorded under it
// with explicit times, then end closes it.
type openSpan struct {
	t     *tracer
	id    uint64
	name  string
	attr  string
	start time.Time
}

func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) root(name, attr string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, id: t.id(), name: name, attr: attr, start: time.Now()}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a finished interval caused by o.
func (o *openSpan) child(name string, start, end time.Time) {
	if o == nil || start.IsZero() || end.IsZero() {
		return
	}
	o.t.record(span{ID: o.t.id(), Parent: o.id, Root: o.id, Name: name,
		Start: start.Sub(o.t.epoch).Nanoseconds(), End: end.Sub(o.t.epoch).Nanoseconds()})
}

// timed runs fn as a child span of o and returns how long it took; it
// times fn even when tracing is off, because the stage harness reads
// its per-layer numbers from these same intervals.
func (o *openSpan) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	o.child(name, start, end)
	return end.Sub(start)
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.t.record(span{ID: o.id, Root: o.id, Name: o.name, Attr: o.attr,
		Start: o.start.Sub(o.t.epoch).Nanoseconds(), End: time.Since(o.t.epoch).Nanoseconds()})
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its direct children cover. Overlapping children are
// counted once and children are clipped to the parent, so self time is
// never negative.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// spanStat is what the traced run prints per span name.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize adds up duration and self time per span name, largest
// self time first: where the time went, by layer.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	byName := map[string]*spanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans dumps the trace as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
