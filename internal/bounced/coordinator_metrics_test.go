package bounced

import (
	"net/http/httptest"
	"os"
	"testing"
)

// TestCoordinatorMetricsGolden locks the coordinator's whole /metrics
// text — every series name, HELP line, TYPE and label set — against
// testdata/coordinator_metrics.golden, for a coordinator whose last
// gather saw two shards, one of them a replica set.
func TestCoordinatorMetricsGolden(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{ShardURLs: []string{"http://a:1", "http://b:2/"}})
	if err != nil {
		t.Fatal(err)
	}
	c.fanins.Store(5)
	c.faninErrs.Store(1)
	c.reprobes.Store(2)
	c.reports.Store(3)
	c.lastMergeMs = 12.5
	c.lastRecords = 80000
	c.lastShards = []shardInfo{
		{URL: "http://a:1", Routed: true, Primary: "http://a:3", Epoch: 2, LagRecords: 17, Records: 40000},
		{URL: "http://b:2", Epoch: 1, Records: 40000},
	}
	rec := httptest.NewRecorder()
	c.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	want, err := os.ReadFile("testdata/coordinator_metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("coordinator /metrics diverges from the golden.\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
