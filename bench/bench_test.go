package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100, 0: 1} {
		if got := s.pct(p); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", p, got, want)
		}
	}
	if got := (sample{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if got := (sample{}).pct(95); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Root: 1, Name: "op.post", Start: 0, End: 100},
		{ID: 2, Parent: 1, Root: 1, Name: "http.write", Start: 10, End: 30},
		{ID: 3, Parent: 1, Root: 1, Name: "http.wait", Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Root: 1, Name: "http.read", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Root: 1, Name: "grandchild", Start: 25, End: 35}, // covers its parent, not span 1
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	for _, st := range summarize(spans) {
		if st.Name == "op.post" && (st.Count != 1 || st.TotalMs != 100e-6 || st.SelfMs != 50e-6) {
			t.Errorf("summary of op.post = %+v", st)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	root := tr.root("op.post", "b1")
	if d := root.timed("x", func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("timed must time even with tracing off, got %v", d)
	}
	root.child("y", time.Now(), time.Now())
	root.end()

	tr = newTracer()
	root = tr.root("op.post", "b1")
	root.timed("x", func() {})
	root.end()
	if len(tr.spans) != 2 || tr.spans[0].Parent != tr.spans[1].ID || tr.spans[1].Attr != "b1" {
		t.Errorf("spans = %+v", tr.spans)
	}
}

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	sched := schedule{start: start, every: 10 * time.Millisecond}
	if got := sched.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v, want the start", got)
	}
	if got := sched.due(25).Sub(start); got != 250*time.Millisecond {
		t.Errorf("due(25) is %v after the start, want 250ms", got)
	}
	// Sent on time: latency runs from the due time, lateness is zero even
	// when the generator woke a little early.
	due := sched.due(3)
	lat, late := account(due, due.Add(-time.Millisecond), due.Add(4*time.Millisecond))
	if lat != 4 || late != 0 {
		t.Errorf("on-time request: latency %g ms lateness %g ms, want 4 and 0", lat, late)
	}
	// A stall before it made the generator 30 ms late: the request is
	// charged the wait (35 ms from due), and the lateness is reported.
	lat, late = account(due, due.Add(30*time.Millisecond), due.Add(35*time.Millisecond))
	if lat != 35 || late != 30 {
		t.Errorf("late request: latency %g ms lateness %g ms, want 35 and 30", lat, late)
	}
}

// bodiesHash fingerprints a body sequence.
func bodiesHash(bs []body) string {
	h := sha256.New()
	for i := range bs {
		fmt.Fprintf(h, "%s\x00%d\x00", bs[i].id, bs[i].records)
		h.Write(bs[i].data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameBodyBytes(t *testing.T) {
	hash := func(seed uint64) string {
		c, err := newCorpus(seed, 2000)
		if err != nil {
			t.Fatal(err)
		}
		parts := c.partition(0, c.all.n(), 2)
		var all []body
		for k := range parts {
			bs, err := makeBodies(&parts[k], 0, parts[k].n(), batchBody, true, "t")
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, bs...)
		}
		plain, err := makeBodies(&c.all, 0, c.all.n(), streamBody, false, "")
		if err != nil {
			t.Fatal(err)
		}
		n, raw := 0, 0
		for i := range plain {
			n, raw = n+plain[i].records, raw+plain[i].rawBytes
		}
		if n != c.all.n() || raw != len(c.all.buf) {
			t.Fatalf("identity bodies hold %d records / %d bytes, corpus has %d / %d", n, raw, c.all.n(), len(c.all.buf))
		}
		return bodiesHash(append(all, plain...))
	}
	a, b, other := hash(7), hash(7), hash(8)
	if a != b {
		t.Errorf("seed 7 gave two different body sequences: %s, %s", a, b)
	}
	if a == other {
		t.Error("seeds 7 and 8 gave the same bodies")
	}
}

func TestParseStatCPU(t *testing.T) {
	// comm may hold spaces and parentheses; utime=250 stime=50 ticks.
	stat := "1234 (a b) c) S 1 1234 1234 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 10 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3 {
		t.Errorf("parseStatCPU = %g, %v; want 3 s", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	if v, err := procCPU(os.Getpid()); err != nil || v < 0 {
		t.Errorf("procCPU(self) = %g, %v", v, err)
	}
	if v, err := procPeakRSS(os.Getpid()); err != nil || v <= 0 {
		t.Errorf("procPeakRSS(self) = %g, %v", v, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The manifest and the code name the same workloads and metrics, with
// the same units and directions, and the manifest is inside the limits
// its contract sets.
func TestManifestMatchesCatalogue(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	if got := strings.Join(man.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command = %q", got)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", man.RunSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(man.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range man.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: manifest {%s %s %s}, code %+v", kind, i, m.Name, m.Unit, m.Better, want[i])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: an end-to-end metric needs a bound in (0, 0.25]", m.Name)
			}
			if !bounded && m.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", man.EndToEnd, endToEnd, true)
	check("per_layer", man.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the manifest's limits", len(perLayer), len(endToEnd))
	}
	if man.EndToEnd[0].Name != "setup_s" || man.EndToEnd[0].Unit != "s" || man.EndToEnd[0].Better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bound := 0.10
	man := manifest{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []manifestMetric{
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: &bound},
			{Name: "lat", Unit: "ms", Better: "lower", Bound: &bound},
		},
	}
	write := func(name string, v any) string {
		p := filepath.Join(dir, name)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	row := func(nproc int, rate, lat float64) any {
		return map[string]any{
			"machine": machine{NumCPU: nproc}, "workload": "w", "traced": false,
			"metrics": map[string]metric{"rate": {rate, "1/s"}, "lat": {lat, "ms"}},
		}
	}
	manPath := write("BENCHMARK.json", man)
	base := write("a.jsonl", row(2, 1000, 10))
	for _, tc := range []struct {
		name      string
		rate, lat float64
		ok        bool
	}{
		{"same", 1000, 10, true},
		{"inside", 920, 10.9, true},
		{"better", 2000, 1, true},
		{"slower", 880, 10, false},
		{"laggier", 1000, 11.5, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, manPath, base, write(tc.name+".jsonl", row(2, tc.rate, tc.lat)))
		if err != nil || ok != tc.ok {
			t.Errorf("%s: ok=%v err=%v, want ok=%v\n%s", tc.name, ok, err, tc.ok, out.String())
		}
	}
	if _, err := compareFiles(&bytes.Buffer{}, manPath, base, write("4cpu.jsonl", row(4, 1000, 10))); err == nil {
		t.Error("rows from 2 and 4 CPUs were compared")
	}
}

// TestSmoke drives single-stream and durable-batch through real child
// processes at a few thousand records, and the traced run once, and
// checks that each mode emits exactly the metrics the manifest lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns bounced processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o := options{scratch: t.TempDir(), seed: 7, seconds: 1, emails: 5000}
	bin, err := buildBounced(ctx, "..", o.scratch)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		traced   bool
	}{
		{"single-stream", false},
		{"durable-batch", false},
		{"durable-batch", true},
	} {
		res, err := execute(ctx, o, findWorkload(tc.workload), tc.traced, bin, 0)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", tc.workload, tc.traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", tc.workload, res.Correct, res.Attempted, res.Failed)
		}
		got := res.contract()["metrics"].(map[string]metric)
		want := endToEnd
		if tc.traced {
			want = perLayer
		}
		if len(got) != len(want) {
			t.Errorf("%s traced=%v: %d metrics in the result, manifest lists %d", tc.workload, tc.traced, len(got), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", tc.workload, tc.traced, d.name, m.Unit, d.unit)
			}
			if !tc.traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", tc.workload, d.name, m.Value)
			}
		}
		if tc.traced {
			for _, name := range []string{"dataset.decode_ns_per_record", "store.append_ns_per_record", "analysis.detect_ms",
				"bounced.checkpoint_now_ms", "store.readtail_end_ms", "store.fsync_count", "checkpoint_s", "recover_s",
				"disk_bytes_per_input_byte", "client.http_wait_ms_p50", "loadgen.trace_overhead_ratio"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("traced %s: %s = %g, want it measured", tc.workload, name, res.Metrics[name].Value)
				}
			}
			spans, err := os.ReadFile(filepath.Join(o.scratch, "spans-"+tc.workload+".jsonl"))
			if err != nil || !bytes.Contains(spans, []byte(`"op.recover"`)) || !bytes.Contains(spans, []byte(`"stage.batch"`)) {
				t.Errorf("span dump missing or without op.recover/stage.batch spans: %v", err)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(o.scratch, "run-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
