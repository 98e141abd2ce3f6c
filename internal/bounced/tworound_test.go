package bounced_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
)

// TestClusterTwoRoundsMatchSingleNode: the coordinator's two-round
// report is byte-identical to one node's for 1, 2, 3 and 16 shards,
// without an environment and with one (whose leak corpus makes the
// recipient sets and bulk counts travel), and for every merge order of
// 3.
func TestClusterTwoRoundsMatchSingleNode(t *testing.T) {
	records, fullEnv := fixture(t)
	for _, env := range []*analysis.Environment{nil, fullEnv} {
		want := singleNodeReport(t, records, env)
		for _, n := range []int{1, 2, 3, 16} {
			servers, cleanup := clusterNodes(t, records, env, n)
			orders := [][]int{nil}
			if n == 3 {
				orders = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
			}
			for _, order := range orders {
				urls := make([]string, n)
				for i := range urls {
					urls[i] = servers[i].URL
					if order != nil {
						urls[i] = servers[order[i]].URL
					}
				}
				coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: urls, Env: env})
				if err != nil {
					t.Fatal(err)
				}
				cts := httptest.NewServer(coord.Handler())
				status, got := getBody(t, cts.URL+"/v1/report")
				cts.Close()
				if status != http.StatusOK || !bytes.Equal(got, want) {
					t.Errorf("env=%v shards=%d order=%v: status %d, report diverges from single node (%d vs %d bytes)",
						env != nil, n, order, status, len(got), len(want))
				}
			}
			cleanup()
		}
	}
}

// roundProxy fronts one shard node, forwarding every request. Right
// after it has forwarded a round 1 (GET /v1/partial) and before it
// answers it, it runs the between hook once, if one is set. It counts
// the rounds it forwarded and the round-2 409s.
type roundProxy struct {
	shard   string
	mu      sync.Mutex
	between func()
	round1s int
	moved   int
}

func (p *roundProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.shard+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if r.URL.Path == "/v1/partial" {
		p.mu.Lock()
		between := p.between
		if r.Method == http.MethodGet {
			p.round1s++
			p.between = nil
		} else if resp.StatusCode == http.StatusConflict {
			p.moved++
			between = nil
		} else {
			between = nil
		}
		p.mu.Unlock()
		if between != nil {
			between()
		}
	}
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// counts returns and resets the proxy's round counters.
func (p *roundProxy) counts() (round1s, moved int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	round1s, moved = p.round1s, p.moved
	p.round1s, p.moved = 0, 0
	return round1s, moved
}

// TestClusterIngestBetweenRounds: records that land on a shard
// between a coordinator's two rounds never mix two snapshots into its
// report — round 2 is answered from the study round 1 pinned — and a
// second coordinator whose round 1 re-pins the shard in between costs
// the first one 409 and one more gather, and both serve correct
// reports.
func TestClusterIngestBetweenRounds(t *testing.T) {
	records, env := fixture(t)
	var own [2][]int // record indexes per shard, in corpus order
	for i := range records {
		o := analysis.OwnerOf(&records[i], 2)
		own[o] = append(own[o], i)
	}
	a, b := len(own[0])/3, 2*len(own[0])/3
	pick := func(idx []int) []dataset.Record {
		out := make([]dataset.Record, len(idx))
		for i, j := range idx {
			out[i] = records[j]
		}
		return out
	}
	// without returns the corpus, in order, minus shard 0's records from
	// its from-th on: what the cluster holds before they land.
	without := func(from int) []dataset.Record {
		late := map[int]bool{}
		for _, j := range own[0][from:] {
			late[j] = true
		}
		var out []dataset.Record
		for i := range records {
			if !late[i] {
				out = append(out, records[i])
			}
		}
		return out
	}

	srvs := make([]*bounced.Server, 2)
	shards := make([]*httptest.Server, 2)
	for i := range srvs {
		srvs[i] = newServer(t, bounced.Config{Env: env, ShardCount: 2, ShardIndex: i})
		defer srvs[i].Abort()
		shards[i] = httptest.NewServer(srvs[i].Handler())
		defer shards[i].Close()
	}
	if ir := postRecords(t, shards[0].URL, encodeNDJSON(t, pick(own[0][:a]))); ir.status != http.StatusOK {
		t.Fatalf("shard 0: status %d: %s", ir.status, ir.Error)
	}
	if ir := postRecords(t, shards[1].URL, encodeNDJSON(t, pick(own[1]))); ir.status != http.StatusOK {
		t.Fatalf("shard 1: status %d: %s", ir.status, ir.Error)
	}
	// ingest posts records to shard 0 from inside the proxy, where
	// t.Fatal must not be called.
	ingest := func(recs []dataset.Record) {
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for i := range recs {
			enc.Encode(&recs[i])
		}
		resp, err := http.Post(shards[0].URL+"/v1/records", "application/x-ndjson", &body)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("ingest between the rounds: status %d", resp.StatusCode)
		}
	}

	proxy := &roundProxy{shard: shards[0].URL}
	pts := httptest.NewServer(proxy)
	defer pts.Close()
	coordA, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: []string{pts.URL, shards[1].URL}, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	ats := httptest.NewServer(coordA.Handler())
	defer ats.Close()
	coordB, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: []string{shards[0].URL, shards[1].URL}, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(coordB.Handler())
	defer bts.Close()

	// Records land between A's rounds: its report is over the records
	// each shard held at its round 1.
	proxy.mu.Lock()
	proxy.between = func() { ingest(pick(own[0][a:b])) }
	proxy.mu.Unlock()
	status, got := getBody(t, ats.URL+"/v1/report")
	if want := singleNodeReport(t, without(a), env); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("ingest between the rounds: status %d, report is not batch over the round-1 records (%d vs %d bytes): %.200s", status, len(got), len(want), got)
	}
	if round1s, moved := proxy.counts(); round1s != 1 || moved != 0 {
		t.Fatalf("ingest between the rounds: %d round 1s and %d 409s, want 1 and 0", round1s, moved)
	}

	// B's whole gather runs between A's rounds, over newer records: B's
	// report is correct, and A's costs one 409 and one more gather.
	full := singleNodeReport(t, records, env)
	var bStatus int
	var bGot []byte
	proxy.mu.Lock()
	proxy.between = func() {
		ingest(pick(own[0][b:]))
		resp, err := http.Get(bts.URL + "/v1/report")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		bStatus = resp.StatusCode
		bGot, _ = io.ReadAll(resp.Body)
	}
	proxy.mu.Unlock()
	status, got = getBody(t, ats.URL+"/v1/report")
	if status != http.StatusOK || !bytes.Equal(got, full) {
		t.Fatalf("after a 409: status %d, report diverges from batch (%d vs %d bytes): %.200s", status, len(got), len(full), got)
	}
	if bStatus != http.StatusOK || !bytes.Equal(bGot, full) {
		t.Fatalf("the interleaved coordinator: status %d, report diverges from batch (%d vs %d bytes)", bStatus, len(bGot), len(full))
	}
	if round1s, moved := proxy.counts(); round1s != 2 || moved != 1 {
		t.Fatalf("interleaved round 1: %d round 1s and %d 409s through the proxy, want 2 and 1", round1s, moved)
	}
	_, metrics := getBody(t, ats.URL+"/metrics")
	for _, line := range []string{"coordinator_fanin_errors_total 0", "coordinator_reprobes_total 0", "coordinator_fanins_total 2"} {
		if !strings.Contains(string(metrics), line+"\n") {
			t.Errorf("coordinator metrics lack %q:\n%s", line, metrics)
		}
	}
}

// TestClusterRefusesVersionSkew: a shard of the previous build serves
// a version-1 whole partial on GET /v1/partial. The coordinator refuses
// it with a 503 naming both versions, and never gets to round 2.
func TestClusterRefusesVersionSkew(t *testing.T) {
	v1, err := os.ReadFile("../analysis/testdata/partialset_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	var round2 sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc(replication.PathStatus, func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(replication.NodeStatus{Role: "primary", Epoch: 1})
	})
	mux.HandleFunc("GET /v1/partial", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Partial-Records", "600")
		w.Write(v1)
	})
	mux.HandleFunc("POST /v1/partial", func(w http.ResponseWriter, _ *http.Request) {
		round2.Do(func() { t.Error("round 2 reached a shard whose round 1 was refused") })
		http.Error(w, "no round 2 here", http.StatusMethodNotAllowed)
	})
	parent := httptest.NewServer(mux)
	defer parent.Close()

	coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: []string{parent.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	status, body := getBody(t, cts.URL+"/v1/report")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), "version 1, want 2") {
		t.Fatalf("version-1 shard: status %d body %s, want a 503 naming version 1 and 2", status, body)
	}
	if status, _ := getBody(t, cts.URL+"/v1/stats"); status != http.StatusServiceUnavailable {
		t.Fatalf("version-1 shard: stats status %d, want 503", status)
	}
}
