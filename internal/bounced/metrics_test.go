package bounced

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
)

// TestLatencyHistBucketInclusivity pins the Prometheus bucket
// semantics over the classify-latency bounds: `le` is an inclusive
// upper bound, so an observation exactly at a bound lands in that
// bound's bucket, and one past the last bound lands only in +Inf.
func TestLatencyHistBucketInclusivity(t *testing.T) {
	h := stats.NewHistogram(latencyBounds)
	h.Observe(500) // exactly at the first bound: le="5e-07" includes it
	h.Observe(501) // one past: next bucket
	h.Observe(8192000)
	h.Observe(8192001) // beyond every finite bound: +Inf only

	if h.Buckets[0] != 1 {
		t.Errorf("bucket[le=500ns] = %d, want 1 (bounds are inclusive)", h.Buckets[0])
	}
	if h.Buckets[1] != 1 {
		t.Errorf("bucket[le=1000ns] = %d, want 1", h.Buckets[1])
	}
	last := len(latencyBounds) - 1
	if h.Buckets[last] != 1 {
		t.Errorf("bucket[le=8.192ms] = %d, want 1", h.Buckets[last])
	}
	if h.Buckets[last+1] != 1 {
		t.Errorf("+Inf overflow bucket = %d, want 1", h.Buckets[last+1])
	}
	if h.Count != 4 {
		t.Errorf("count = %d, want 4", h.Count)
	}
	if want := int64(500 + 501 + 8192000 + 8192001); h.Sum != want {
		t.Errorf("sum = %d, want %d", h.Sum, want)
	}
}

// TestMetricsHistogramGoldenFormat locks the exposition text of the
// classify-latency histogram: cumulative buckets in bound order, the
// observation at a bound counted at that bound, +Inf equal to _count,
// and _sum in seconds.
func TestMetricsHistogramGoldenFormat(t *testing.T) {
	s, err := New(Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()

	// Known observations: one at the first bound exactly, one mid-range,
	// one past every finite bound.
	s.hist.Observe(500)
	s.hist.Observe(3000)
	s.hist.Observe(10_000_000)

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()

	golden := `# HELP bounced_classify_latency_seconds Live per-record classification latency.
# TYPE bounced_classify_latency_seconds histogram
bounced_classify_latency_seconds_bucket{le="5e-07"} 1
bounced_classify_latency_seconds_bucket{le="1e-06"} 1
bounced_classify_latency_seconds_bucket{le="2e-06"} 1
bounced_classify_latency_seconds_bucket{le="4e-06"} 2
bounced_classify_latency_seconds_bucket{le="8e-06"} 2
bounced_classify_latency_seconds_bucket{le="1.6e-05"} 2
bounced_classify_latency_seconds_bucket{le="3.2e-05"} 2
bounced_classify_latency_seconds_bucket{le="6.4e-05"} 2
bounced_classify_latency_seconds_bucket{le="0.000128"} 2
bounced_classify_latency_seconds_bucket{le="0.000256"} 2
bounced_classify_latency_seconds_bucket{le="0.000512"} 2
bounced_classify_latency_seconds_bucket{le="0.001024"} 2
bounced_classify_latency_seconds_bucket{le="0.002048"} 2
bounced_classify_latency_seconds_bucket{le="0.004096"} 2
bounced_classify_latency_seconds_bucket{le="0.008192"} 2
bounced_classify_latency_seconds_bucket{le="+Inf"} 3
bounced_classify_latency_seconds_sum 0.0100035
bounced_classify_latency_seconds_count 3
`
	if !strings.Contains(body, golden) {
		t.Fatalf("histogram block diverges from golden format.\n--- want ---\n%s\n--- /metrics ---\n%s", golden, body)
	}
}

// TestMetricsReplicationBlock locks the replication series on durable
// nodes: role/epoch gauges and the promotion counter, flipping with a
// promotion, and absent entirely on memory-only nodes.
func TestMetricsReplicationBlock(t *testing.T) {
	scrape := func(s *Server) string {
		rec := httptest.NewRecorder()
		s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}

	mem, err := New(Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Abort()
	if body := scrape(mem); strings.Contains(body, "bounced_epoch") {
		t.Fatal("memory-only node exposes replication metrics")
	}

	s, err := New(Config{QueueDepth: 4, Standby: true, Store: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	body := scrape(s)
	for _, want := range []string{
		"bounced_standby 1\n",
		"bounced_epoch 1\n",
		"bounced_repl_next_index 0\n",
		"bounced_repl_standbys 0\n",
		"bounced_promotions_total 0\n",
		"bounced_repl_ack_waits_total 0\n",
		"bounced_repl_applies_total 0\n",
		"# TYPE bounced_wal_tail_reads_total counter\nbounced_wal_tail_reads_total 0\n",
		"# TYPE bounced_wal_tail_scanned_bytes_total counter\nbounced_wal_tail_scanned_bytes_total 0\n",
		"# TYPE bounced_wal_tail_shipped_bytes_total counter\nbounced_wal_tail_shipped_bytes_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("standby /metrics missing %q", strings.TrimSpace(want))
		}
	}
	if !s.Promote(7, "test") {
		t.Fatal("Promote returned false on a standby")
	}
	body = scrape(s)
	for _, want := range []string{
		"bounced_standby 0\n",
		"bounced_epoch 7\n",
		"bounced_promotions_total 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("promoted /metrics missing %q", strings.TrimSpace(want))
		}
	}
}

// TestMetricsHistogramInvariants re-parses the exposition output and
// checks the structural invariants any Prometheus scraper assumes:
// buckets are cumulative and non-decreasing in bound order, and the
// +Inf bucket equals _count.
func TestMetricsHistogramInvariants(t *testing.T) {
	s, err := New(Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	for ns := int64(100); ns < 20_000_000; ns = ns*3 + 17 {
		s.hist.Observe(ns)
	}

	rec := httptest.NewRecorder()
	s.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))

	var prev, inf, count uint64
	var seenInf bool
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "bounced_classify_latency_seconds_bucket{le=\"+Inf\"}"):
			fmt.Sscanf(line, "bounced_classify_latency_seconds_bucket{le=\"+Inf\"} %d", &inf)
			seenInf = true
			if inf < prev {
				t.Errorf("+Inf bucket %d < previous cumulative %d", inf, prev)
			}
		case strings.HasPrefix(line, "bounced_classify_latency_seconds_bucket"):
			var v uint64
			i := strings.LastIndexByte(line, ' ')
			fmt.Sscanf(line[i+1:], "%d", &v)
			if v < prev {
				t.Errorf("bucket series decreased: %d after %d (%s)", v, prev, line)
			}
			prev = v
		case strings.HasPrefix(line, "bounced_classify_latency_seconds_count"):
			fmt.Sscanf(line, "bounced_classify_latency_seconds_count %d", &count)
		}
	}
	if !seenInf {
		t.Fatal("no +Inf bucket emitted")
	}
	if inf != count {
		t.Errorf("+Inf bucket %d != _count %d", inf, count)
	}
}
