package bounced_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
)

// clusterNodes boots n shard servers over the real HTTP stack and
// routes the corpus to them by substream ownership. The caller owns
// shutdown via the returned cleanup.
func clusterNodes(t *testing.T, records []dataset.Record, env *analysis.Environment, n int) ([]*httptest.Server, func()) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	srvs := make([]*bounced.Server, n)
	for i := 0; i < n; i++ {
		srvs[i] = newServer(t, bounced.Config{Env: env, ShardCount: n, ShardIndex: i})
		servers[i] = httptest.NewServer(srvs[i].Handler())
	}
	parts := make([][]dataset.Record, n)
	for i := range records {
		own := analysis.OwnerOf(&records[i], n)
		parts[own] = append(parts[own], records[i])
	}
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		ir := postRecords(t, servers[i].URL, encodeNDJSON(t, part))
		if ir.status != http.StatusOK || ir.Accepted != len(part) {
			t.Fatalf("shard %d: status %d accepted %d of %d: %s", i, ir.status, ir.Accepted, len(part), ir.Error)
		}
	}
	return servers, func() {
		for i := range servers {
			servers[i].Close()
			srvs[i].Abort()
		}
	}
}

// coordinatorSectionQuery asks a single node for exactly the sections a
// coordinator serves by default.
func coordinatorSectionQuery() string {
	names := make([]string, len(bounce.PartialSections))
	for i, s := range bounce.PartialSections {
		names[i] = string(s)
	}
	return "/v1/report?section=" + strings.Join(names, ",")
}

// singleNodeReport ingests the whole corpus into one unsharded node
// and returns its partial-section report bytes.
func singleNodeReport(t *testing.T, records []dataset.Record, env *analysis.Environment) []byte {
	t.Helper()
	srv := newServer(t, bounced.Config{Env: env})
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ir := postRecords(t, ts.URL, encodeNDJSON(t, records))
	if ir.status != http.StatusOK || ir.Accepted != len(records) {
		t.Fatalf("single node: status %d accepted %d of %d: %s", ir.status, ir.Accepted, len(records), ir.Error)
	}
	status, b := getBody(t, ts.URL+coordinatorSectionQuery())
	if status != http.StatusOK {
		t.Fatalf("single node report: status %d", status)
	}
	return b
}

// TestClusterReportMatchesSingleNode is the topology's acceptance
// test: 3 shard nodes plus a coordinator, all over real HTTP, must
// serve a report byte-identical to one node that ingested the full
// stream — for every permutation of the coordinator's merge order.
func TestClusterReportMatchesSingleNode(t *testing.T) {
	records, env := fixture(t)
	want := singleNodeReport(t, records, env)

	servers, cleanup := clusterNodes(t, records, env, 3)
	defer cleanup()
	urls := []string{servers[0].URL, servers[1].URL, servers[2].URL}

	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		ordered := []string{urls[perm[0]], urls[perm[1]], urls[perm[2]]}
		coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: ordered, Env: env})
		if err != nil {
			t.Fatal(err)
		}
		cts := httptest.NewServer(coord.Handler())
		status, got := getBody(t, cts.URL+"/v1/report")
		cts.Close()
		if status != http.StatusOK {
			t.Fatalf("order %v: coordinator report status %d", perm, status)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("order %v: coordinator report diverges from single node (%d vs %d bytes)",
				perm, len(got), len(want))
		}
	}
}

// TestClusterEndpointsAndFailure covers the coordinator's sidecar
// surfaces: stats and metrics respond, and a dead shard turns every
// fan-in into a clean 503 instead of a silently partial report.
func TestClusterEndpointsAndFailure(t *testing.T) {
	records, env := fixture(t)
	servers, cleanup := clusterNodes(t, records, env, 3)
	defer cleanup()

	dead := httptest.NewServer(http.NotFoundHandler())
	urls := []string{servers[0].URL, servers[1].URL, servers[2].URL}
	coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: urls, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	if status, b := getBody(t, cts.URL+"/v1/stats"); status != http.StatusOK ||
		!bytes.Contains(b, []byte(`"shards"`)) {
		t.Fatalf("stats: status %d body %s", status, b)
	}
	if status, b := getBody(t, cts.URL+"/metrics"); status != http.StatusOK ||
		!bytes.Contains(b, []byte("coordinator_records")) {
		t.Fatalf("metrics: status %d body %s", status, b)
	}

	// A URL that answers neither status probe is not a shard: it fails
	// the whole fan-in at the probe, before any partial is fetched.
	broken, err := bounced.NewCoordinator(bounced.CoordinatorConfig{
		ShardURLs: []string{urls[0], dead.URL, urls[2]}, Env: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	bts := httptest.NewServer(broken.Handler())
	defer bts.Close()
	if status, b := getBody(t, bts.URL+"/v1/report"); status != http.StatusServiceUnavailable ||
		!bytes.Contains(b, []byte("neither a router nor a bounced node")) {
		t.Fatalf("dead shard: report status %d, want 503 from the probe: %s", status, b)
	}
	dead.Close()
	if status, _ := getBody(t, bts.URL+"/v1/report"); status != http.StatusServiceUnavailable {
		t.Fatalf("unreachable shard: report status %d, want 503", status)
	}
}

// TestClusterShardRejectsMisrouted: a record whose substream another
// node owns is refused with a line-numbered 400 naming the owner, in
// both streamed and batch admission.
func TestClusterShardRejectsMisrouted(t *testing.T) {
	records, env := fixture(t)
	// Find a record shard 1 owns and post it to shard 0.
	var stray *dataset.Record
	for i := range records {
		if analysis.OwnerOf(&records[i], 3) == 1 {
			stray = &records[i]
			break
		}
	}
	if stray == nil {
		t.Skip("corpus has no shard-1 record")
	}
	srv := newServer(t, bounced.Config{Env: env, ShardCount: 3, ShardIndex: 0})
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := encodeNDJSON(t, []dataset.Record{*stray})
	ir := postRecords(t, ts.URL, body)
	if ir.status != http.StatusBadRequest || !strings.Contains(ir.Error, "owned by shard 1") {
		t.Fatalf("streamed misroute: status %d error %q", ir.status, ir.Error)
	}

	_, bir := postBatchID(t, ts.URL, "misroute-1", 1, body)
	if bir.status != http.StatusBadRequest || !strings.Contains(bir.Error, "owned by shard 1") {
		t.Fatalf("batch misroute: status %d error %q", bir.status, bir.Error)
	}
}

// TestClusterChaosTornShardStream sweeps seeds over the failure the
// batch protocol exists for: one shard's upload dies mid-body, the
// client re-feeds the same batch ID, and the final coordinator report
// is still byte-identical to the single node's.
func TestClusterChaosTornShardStream(t *testing.T) {
	records, env := fixture(t)
	want := singleNodeReport(t, records, env)

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		servers := make([]*httptest.Server, 3)
		srvs := make([]*bounced.Server, 3)
		for i := 0; i < 3; i++ {
			// Queue depth must admit a whole shard's corpus as one
			// all-or-nothing batch.
			srvs[i] = newServer(t, bounced.Config{Env: env, ShardCount: 3, ShardIndex: i, QueueDepth: len(records)})
			servers[i] = httptest.NewServer(srvs[i].Handler())
		}
		parts := make([][]dataset.Record, 3)
		for i := range records {
			own := analysis.OwnerOf(&records[i], 3)
			parts[own] = append(parts[own], records[i])
		}
		victim := rng.Intn(3)
		for i, part := range parts {
			if len(part) == 0 {
				continue
			}
			body := encodeNDJSON(t, part)
			batchID := fmt.Sprintf("chaos-%d-%d", seed, i)
			if i == victim {
				// Tear the body at a random interior byte. The declared
				// record count makes any truncation reject atomically.
				cut := 1 + rng.Intn(len(body)-1)
				_, ir := postBatchID(t, servers[i].URL, batchID, len(part), body[:cut])
				if ir.status == http.StatusOK {
					t.Fatalf("seed %d: torn batch (cut %d of %d) was accepted", seed, cut, len(body))
				}
			}
			_, ir := postBatchID(t, servers[i].URL, batchID, len(part), body)
			if ir.status != http.StatusOK || ir.Accepted != len(part) {
				t.Fatalf("seed %d shard %d: status %d accepted %d of %d: %s",
					seed, i, ir.status, ir.Accepted, len(part), ir.Error)
			}
		}

		coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{
			ShardURLs: []string{servers[0].URL, servers[1].URL, servers[2].URL}, Env: env,
		})
		if err != nil {
			t.Fatal(err)
		}
		cts := httptest.NewServer(coord.Handler())
		status, got := getBody(t, cts.URL+"/v1/report")
		cts.Close()
		if status != http.StatusOK {
			t.Fatalf("seed %d: coordinator report status %d", seed, status)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: post-chaos report diverges from single node (%d vs %d bytes)",
				seed, len(got), len(want))
		}
		for i := range servers {
			servers[i].Close()
			srvs[i].Abort()
		}
	}
}

// TestMisspeltSectionRefusedBeforeTheWork: a report request naming a
// section the role cannot render is a 400 with WriteReport's own error
// text, answered before the node takes a snapshot for it and before
// the coordinator asks its shards for anything — `snapshots` and
// `fanins` stay where they were (the parent rendered table1 first and
// moved both).
func TestMisspeltSectionRefusedBeforeTheWork(t *testing.T) {
	records, env := fixture(t)
	servers, cleanup := clusterNodes(t, records, env, 2)
	defer cleanup()
	counter := func(url, key string) float64 {
		t.Helper()
		status, b := getBody(t, url+"/v1/stats")
		var stats map[string]any
		if err := json.Unmarshal(b, &stats); status != http.StatusOK || err != nil {
			t.Fatalf("stats: status %d, %v: %s", status, err, b)
		}
		n, ok := stats[key].(float64)
		if !ok {
			t.Fatalf("stats has no %q: %s", key, b)
		}
		return n
	}
	refused := func(url, sections, wantErr string) {
		t.Helper()
		status, b := getBody(t, url+"/v1/report?section="+sections)
		if status != http.StatusBadRequest || !bytes.Contains(b, []byte(wantErr)) {
			t.Fatalf("section=%s: status %d body %s, want 400 with %q", sections, status, b, wantErr)
		}
	}

	node := servers[0].URL
	before := counter(node, "snapshots")
	refused(node, "table1,nope", `bounce: unknown section \"nope\"`)
	if after := counter(node, "snapshots"); after != before {
		t.Errorf("node: a refused report took %v snapshot(s)", after-before)
	}
	if status, _ := getBody(t, node+"/v1/report?section=table1,squat"); status != http.StatusOK {
		t.Errorf("node: table1,squat is status %d, want 200", status)
	}
	if after := counter(node, "snapshots"); after != before+1 {
		t.Errorf("node: a served report moved snapshots by %v, want 1", after-before)
	}

	coord, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: []string{servers[0].URL, servers[1].URL}, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	// A coordinator's /v1/stats is itself one fan-in.
	base := counter(cts.URL, "fanins")
	refused(cts.URL, "table1,nope", `bounce: unknown section \"nope\"`)
	refused(cts.URL, "table1,squat", `needs the full corpus`)
	if after := counter(cts.URL, "fanins"); after != base+1 {
		t.Errorf("coordinator: two refused reports fanned in %v time(s)", after-base-1)
	}
	if status, _ := getBody(t, cts.URL+"/v1/report?section=table1"); status != http.StatusOK {
		t.Errorf("coordinator: table1 is status %d, want 200", status)
	}
	if after := counter(cts.URL, "fanins"); after != base+3 {
		t.Errorf("coordinator: a served report and two stats calls moved fanins by %v, want 3", after-base)
	}
}
