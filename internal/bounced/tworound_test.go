package bounced_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
)

// TestClusterTwoRoundsMatchSingleNode: the coordinator's two-round
// report is byte-identical to batch for 1, 2, 3 and 16 shards, without
// an environment and with one (whose leak corpus makes the recipient
// sets and bulk counts travel), and for every merge order of 3.
func TestClusterTwoRoundsMatchSingleNode(t *testing.T) {
	records, fullEnv := fixture(t)
	for _, env := range []*analysis.Environment{nil, fullEnv} {
		want := batchReport(t, records, env, bounce.PartialSections)
		for _, n := range []int{1, 2, 3, 16} {
			t.Run(fmt.Sprintf("env=%v/shards=%d", env != nil, n), func(t *testing.T) {
				c := fedShards(t, records, env, n)
				coords := []string{c.coord}
				if n == 3 {
					for _, o := range orders3[1:] {
						coords = append(coords, coordinator(t, env, c.sets[o[0]].url, c.sets[o[1]].url, c.sets[o[2]].url))
					}
				}
				for i, cts := range coords {
					if got := get(t, cts+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, want) {
						t.Errorf("order %d: report diverges from batch (%d vs %d bytes)", i, len(got), len(want))
					}
				}
			})
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
	parts := split(records, 2)
	a, b := len(parts[0])/3, 2*len(parts[0])/3
	// without returns the corpus, in order, minus shard 0's records from
	// its from-th on: what the cluster holds before they land.
	without := func(from int) (out []dataset.Record) {
		seen := 0
		for i := range records {
			if analysis.OwnerOf(&records[i], 2) == 0 {
				if seen++; seen > from {
					continue
				}
			}
			out = append(out, records[i])
		}
		return out
	}

	// Coordinator B is the cluster's own; A gathers from shard 0
	// through the proxy.
	c := boot(t, row{shards: 2, cfg: bounced.Config{Env: env}})
	shard0 := c.sets[0].url
	if ir := send(t, shard0, batch{recs: parts[0][:a]}); ir.status != http.StatusOK {
		t.Fatalf("shard 0: status %d: %s", ir.status, ir.Error)
	}
	if ir := send(t, c.sets[1].url, batch{recs: parts[1]}); ir.status != http.StatusOK {
		t.Fatalf("shard 1: status %d: %s", ir.status, ir.Error)
	}
	// ingest posts records to shard 0 from inside the proxy, where
	// t.Fatal must not be called.
	ingest := func(recs []dataset.Record) {
		if ir, err := try(shard0, batch{recs: recs}); err != nil || ir.status != http.StatusOK {
			t.Errorf("ingest between the rounds: status %d, %v", ir.status, err)
		}
	}

	proxy := &roundProxy{shard: shard0}
	ats := coordinator(t, env, serve(t, proxy), c.sets[1].url)

	// Records land between A's rounds: its report is over the records
	// each shard held at its round 1.
	proxy.mu.Lock()
	proxy.between = func() { ingest(parts[0][a:b]) }
	proxy.mu.Unlock()
	got := get(t, ats+"/v1/report", http.StatusOK, nil)
	if want := batchReport(t, without(a), env, bounce.PartialSections); !bytes.Equal(got, want) {
		t.Fatalf("ingest between the rounds: report is not batch over the round-1 records (%d vs %d bytes): %.200s", len(got), len(want), got)
	}
	if round1s, moved := proxy.counts(); round1s != 1 || moved != 0 {
		t.Fatalf("ingest between the rounds: %d round 1s and %d 409s, want 1 and 0", round1s, moved)
	}

	// B's whole gather runs between A's rounds, over newer records: B's
	// report is correct, and A's costs one 409 and one more gather.
	full := batchReport(t, records, env, bounce.PartialSections)
	var bStatus int
	var bGot []byte
	proxy.mu.Lock()
	proxy.between = func() {
		ingest(parts[0][b:])
		resp, err := http.Get(c.coord + "/v1/report")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		bStatus = resp.StatusCode
		bGot, _ = io.ReadAll(resp.Body)
	}
	proxy.mu.Unlock()
	if got := get(t, ats+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, full) {
		t.Fatalf("after a 409: report diverges from batch (%d vs %d bytes): %.200s", len(got), len(full), got)
	}
	if bStatus != http.StatusOK || !bytes.Equal(bGot, full) {
		t.Fatalf("the interleaved coordinator: status %d, report diverges from batch (%d vs %d bytes)", bStatus, len(bGot), len(full))
	}
	if round1s, moved := proxy.counts(); round1s != 2 || moved != 1 {
		t.Fatalf("interleaved round 1: %d round 1s and %d 409s through the proxy, want 2 and 1", round1s, moved)
	}
	metrics := get(t, ats+"/metrics", http.StatusOK, nil)
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
	cts := coordinator(t, nil, serve(t, mux))
	if body := get(t, cts+"/v1/report", http.StatusServiceUnavailable, nil); !strings.Contains(string(body), "version 1, want 2") {
		t.Fatalf("version-1 shard: body %s, want a 503 naming version 1 and 2", body)
	}
	get(t, cts+"/v1/stats", http.StatusServiceUnavailable, nil)
}
