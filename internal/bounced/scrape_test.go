package bounced

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/ndr"
	"repro/internal/policy"
	"repro/internal/replication"
	"repro/internal/store"
)

// get serves one GET on h and returns the body.
func get(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// pinnedSeries are the /metrics samples whose values depend on when
// the scrape runs.
var pinnedSeries = regexp.MustCompile(`(?m)^(bounced_last_checkpoint_age_seconds) \S+$`)

// pinMetrics replaces the time-dependent sample values of a /metrics
// body with a fixed token.
func pinMetrics(body []byte) []byte {
	return pinnedSeries.ReplaceAll(body, []byte("$1 <time>"))
}

// pinStats decodes a /v1/stats body, replaces the members whose values
// depend on when the scrape runs (uptime, *_ago_seconds, and a
// checkpoint age other than the -1 of "none yet") with a fixed token,
// and re-encodes it with sorted keys. Numbers keep their literal text,
// so an integer rendered as 1e+06 still differs.
func pinStats(t *testing.T, body []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decode /v1/stats: %v\n%s", err, body)
	}
	var pin func(any)
	pin = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				timed := k == "uptime_seconds" || strings.HasSuffix(k, "_ago_seconds") ||
					k == "last_checkpoint_age_seconds" && x != json.Number("-1")
				if timed {
					v[k] = "<time>"
				} else {
					pin(x)
				}
			}
		case []any:
			for _, x := range v {
				pin(x)
			}
		}
	}
	pin(v)
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverges from the golden.\n--- want ---\n%s--- got ---\n%s", name, want, got)
	}
}

// checkScrapeGoldens compares both scrapes of h with
// testdata/<name>_metrics.golden and testdata/<name>_stats.golden.
func checkScrapeGoldens(t *testing.T, h http.Handler, name string) {
	t.Helper()
	checkGolden(t, name+"_metrics.golden", pinMetrics(get(t, h, "/metrics")))
	checkGolden(t, name+"_stats.golden", pinStats(t, get(t, h, "/v1/stats")))
}

// TestScrapeGoldenMemory locks both whole scrapes of a memory-only
// node with fired faults, the policy-chain counters, live types and a
// classify histogram. Counters are set to distinct values, some of a
// million, so a swapped series or an integer printed as a float shows.
func TestScrapeGoldenMemory(t *testing.T) {
	s, err := New(Config{
		QueueDepth:    64,
		Seed:          42,
		PolicyMetrics: policy.NewMetrics(),
		Faults:        &faultinject.Spec{Seed: 1, Torn: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	p := s.faults.NextPlan()
	p.Fired(faultinject.KindTorn)
	p.Fired(faultinject.KindTorn)
	p.Fired(faultinject.KindDup)
	s.accepted.Store(1_000_000)
	s.consumed.Store(999_000)
	s.batches.Store(7)
	s.badLines.Store(3)
	s.shedRecords.Store(11)
	s.shedBatches.Store(2)
	s.rejected.Store(5)
	s.deduped.Store(13)
	s.dedupBatches.Store(1)
	s.snapTaken.Store(4)
	s.snapMu.Lock()
	s.snapAt, s.snapMs = 999_000, 12.5
	s.snapMu.Unlock()
	for d := dataset.NonBounced; d <= dataset.HardBounced; d++ {
		s.degrees[int(d)].Store(uint64(d+1) * 1_000_000)
	}
	s.typeHits[ndr.AllTypes[0]].Store(17)
	s.typeHits[ndr.AllTypes[5]].Store(1_000_000)
	s.ambiguous.Store(9)
	s.hist.Observe(500)
	s.hist.Observe(3000)
	s.hist.Observe(10_000_000)
	checkScrapeGoldens(t, s.Handler(), "scrape_memory")
}

// TestScrapeGoldenPrimary locks both whole scrapes of a durable
// primary on a filesystem store that has ingested, checkpointed,
// ingested again and heard from one standby.
func TestScrapeGoldenPrimary(t *testing.T) {
	fs, err := store.Open(store.FSOptions{Dir: t.TempDir(), Mode: store.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{QueueDepth: 64, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	if _, err := s.IngestBatch(syncTestRecords(0, 40)); err != nil {
		t.Fatal(err)
	}
	s.waitConsumed(40)
	if err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBatch(syncTestRecords(40, 50)); err != nil {
		t.Fatal(err)
	}
	s.waitConsumed(50)
	s.j.tracker.Advance(s.walIndex.Load())
	s.j.tracker.Observe("http://standby:2", 30)
	s.j.replAckWaits.Store(3)
	s.j.replAckTimeouts.Store(1)
	checkScrapeGoldens(t, s.Handler(), "scrape_primary")
}

// TestScrapeGoldenStandby locks both whole scrapes of a durable standby
// that applied a primary's log and has a sync loop attached.
func TestScrapeGoldenStandby(t *testing.T) {
	peng := store.NewMem()
	primary, err := New(Config{QueueDepth: 64, Store: peng})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Abort()
	if _, err := primary.IngestBatch(syncTestRecords(0, 30)); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{QueueDepth: 64, Standby: true, Store: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	if _, err := peng.ReadTail(0, func(start uint64, b store.RawBatch) error {
		u := &replication.Unit{Start: start, ID: b.ID}
		for _, p := range b.Payloads {
			u.Payloads = append(u.Payloads, append([]byte(nil), p...))
		}
		return s.ApplyBatch(u)
	}); err != nil {
		t.Fatal(err)
	}
	s.waitConsumed(30)
	sl, err := replication.NewStandby(replication.StandbyConfig{
		PrimaryURL:      "http://primary:1",
		ID:              "http://standby:2",
		FailoverTimeout: 3 * time.Second,
	}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(sl)
	checkScrapeGoldens(t, s.Handler(), "scrape_standby")
}

// TestCoordinatorMetricsGoldenMillion is TestCoordinatorMetricsGolden's
// coordinator with a million records behind its last gather: an integer
// gauge must keep its integer form, not turn into 1e+06.
func TestCoordinatorMetricsGoldenMillion(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{ShardURLs: []string{"http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	c.fanins.Store(1_000_000)
	c.lastMergeMs = 1_000_000
	c.lastRecords = 1_000_000
	c.lastShards = []shardInfo{{URL: "http://a:1", Epoch: 1_000_000, LagRecords: 1_000_000, Records: 1_000_000}}
	checkGolden(t, "coordinator_metrics_million.golden", get(t, c.Handler(), "/metrics"))
}

// TestCoordinatorStatsGolden locks the coordinator's whole /v1/stats
// body after one gather from an empty memory-only shard. The shard's
// address is replaced, and the merge time pinned, before comparing.
func TestCoordinatorStatsGolden(t *testing.T) {
	shard, err := New(Config{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Abort()
	ts := httptest.NewServer(shard.Handler())
	defer ts.Close()
	c, err := NewCoordinator(CoordinatorConfig{ShardURLs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	c.reports.Store(1_000_000)
	body := bytes.ReplaceAll(get(t, c.Handler(), "/v1/stats"), []byte(ts.URL), []byte("http://shard:1"))
	body = regexp.MustCompile(`"merge_ms": [^,\n]+`).ReplaceAll(body, []byte(`"merge_ms": 0`))
	checkGolden(t, "coordinator_stats.golden", pinStats(t, body))
}

// promSample matches one /metrics sample line: a name, an optional
// label set, a value.
var promSample = regexp.MustCompile(`^([a-z_]+)(\{[^}]*\})? (\S+)$`)

// promCounters parses a /metrics body, failing on any line that is
// neither a HELP/TYPE comment nor a sample, and returns the samples of
// the counter and histogram families by name and label set.
func promCounters(body []byte) (map[string]float64, error) {
	out := map[string]float64{}
	typ := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			typ[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("unparsable line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %v", line, err)
		}
		fam := m[1]
		if typ[fam] == "" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				fam = strings.TrimSuffix(fam, suf)
			}
		}
		switch typ[fam] {
		case "counter", "histogram":
			out[m[1]+m[2]] = v
		case "gauge":
		default:
			return nil, fmt.Errorf("sample %q of no declared family", line)
		}
	}
	return out, nil
}

// statsCounters are the /v1/stats members that only grow while a node
// ingests, applies, checkpoints and promotes.
var statsCounters = [][]string{
	{"accepted"}, {"consumed"}, {"batches"}, {"snapshots"}, {"faults_injected"},
	{"classify_latency", "count"},
	{"durability", "appended_records"}, {"durability", "checkpoints"},
	{"durability", "next_index"}, {"durability", "fsync_latency", "count"},
	{"replication", "epoch"}, {"replication", "next_index"}, {"replication", "promotions"},
	{"replication", "applies"}, {"replication", "applied_records"},
}

// jsonCounters decodes a /v1/stats body and returns statsCounters'
// values by path.
func jsonCounters(body []byte) (map[string]float64, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, path := range statsCounters {
		var v any = m
		for _, k := range path {
			obj, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("%v: not an object on the way", path)
			}
			v = obj[k]
		}
		n, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("%v = %v, not a number", path, v)
		}
		out[strings.Join(path, ".")] = n
	}
	return out, nil
}

// TestScrapeWhileServing scrapes /metrics and /v1/stats concurrently
// on a durable node while it applies a primary's log as a standby,
// checkpoints, snapshots, is promoted and then ingests on its own.
// Every body must parse, and no counter may fall between one scrape
// and the next of the same endpoint.
func TestScrapeWhileServing(t *testing.T) {
	peng := store.NewMem()
	primary, err := New(Config{QueueDepth: 64, Store: peng})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Abort()
	for i := 0; i < 200; i += 20 {
		if _, err := primary.IngestBatch(syncTestRecords(i, i+20)); err != nil {
			t.Fatal(err)
		}
	}
	var units []*replication.Unit
	if _, err := peng.ReadTail(0, func(start uint64, b store.RawBatch) error {
		u := &replication.Unit{Start: start, ID: b.ID}
		for _, p := range b.Payloads {
			u.Payloads = append(u.Payloads, append([]byte(nil), p...))
		}
		units = append(units, u)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{QueueDepth: 64, Standby: true, Store: store.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	sl, err := replication.NewStandby(replication.StandbyConfig{PrimaryURL: "http://primary:1", ID: "http://standby:2"}, s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSync(sl)
	h := s.Handler()

	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	// A scraper reports its first failure and then only keeps counting,
	// so step never waits on it in vain.
	var scrapes atomic.Int64
	scraper := func(path string, parse func([]byte) (map[string]float64, error)) {
		defer wg.Done()
		var prev map[string]float64
		failed := false
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			cur, err := parse(rec.Body.Bytes())
			if !failed && (rec.Code != http.StatusOK || err != nil) {
				t.Errorf("%s: status %d: %v\n%s", path, rec.Code, err, rec.Body)
				failed = true
			}
			for k, v := range cur {
				if p, ok := prev[k]; ok && v < p && !failed {
					t.Errorf("%s: %s fell from %v to %v", path, k, p, v)
					failed = true
				}
			}
			prev = cur
			scrapes.Add(1)
		}
	}
	// step lets the two endpoints be scraped twice more, together,
	// between two steps of the serving sequence.
	step := func() {
		for n := scrapes.Load(); scrapes.Load() < n+2; {
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Add(3)
	go scraper("/metrics", promCounters)
	go scraper("/v1/stats", jsonCounters)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.CheckpointNow(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i, u := range units {
		if err := s.ApplyBatch(u); err != nil {
			t.Fatal(err)
		}
		step()
		if i == len(units)/2 {
			s.study()
		}
	}
	if !s.Promote(2, "test") {
		t.Fatal("Promote returned false on a standby")
	}
	step()
	for i := 200; i < 400; i += 20 {
		if _, err := s.IngestBatch(syncTestRecords(i, i+20)); err != nil {
			t.Fatal(err)
		}
		step()
		if i == 300 {
			s.study()
		}
	}
	s.waitConsumed(400)
}
