package bounced_test

import (
	"bytes"
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

// fedShards boots n memory-only shard nodes behind a coordinator and
// feeds each the records it owns.
func fedShards(t *testing.T, records []dataset.Record, env *analysis.Environment, n int) *cluster {
	t.Helper()
	c := boot(t, row{shards: n, cfg: bounced.Config{Env: env}})
	for i, part := range split(records, n) {
		if len(part) == 0 {
			continue
		}
		if ir := send(t, c.sets[i].url, batch{recs: part}); ir.status != http.StatusOK || ir.Accepted != len(part) {
			t.Fatalf("shard %d: status %d accepted %d of %d: %s", i, ir.status, ir.Accepted, len(part), ir.Error)
		}
	}
	return c
}

// orders3 is every merge order of three shards.
var orders3 = [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// TestClusterReportMatchesSingleNode is the topology's acceptance
// test: 3 shard nodes plus a coordinator, all over real HTTP, must
// serve a report byte-identical to batch over the full stream — for
// every permutation of the coordinator's merge order.
func TestClusterReportMatchesSingleNode(t *testing.T) {
	records, env := fixture(t)
	want := batchReport(t, records, env, bounce.PartialSections)
	c := fedShards(t, records, env, 3)
	for _, perm := range orders3 {
		cts := coordinator(t, env, c.sets[perm[0]].url, c.sets[perm[1]].url, c.sets[perm[2]].url)
		if got := get(t, cts+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, want) {
			t.Fatalf("order %v: coordinator report diverges from batch (%d vs %d bytes)",
				perm, len(got), len(want))
		}
	}
}

// TestClusterEndpointsAndFailure covers the coordinator's sidecar
// surfaces: stats and metrics respond, and a dead shard turns every
// fan-in into a clean 503 instead of a silently partial report.
func TestClusterEndpointsAndFailure(t *testing.T) {
	records, env := fixture(t)
	c := fedShards(t, records, env, 3)

	if b := get(t, c.coord+"/v1/stats", http.StatusOK, nil); !bytes.Contains(b, []byte(`"shards"`)) {
		t.Fatalf("stats: body %s", b)
	}
	if b := get(t, c.coord+"/metrics", http.StatusOK, nil); !bytes.Contains(b, []byte("coordinator_records")) {
		t.Fatalf("metrics: body %s", b)
	}

	// A URL that answers neither status probe is not a shard: it fails
	// the whole fan-in at the probe, before any partial is fetched.
	dead := httptest.NewServer(http.NotFoundHandler())
	bts := coordinator(t, env, c.sets[0].url, dead.URL, c.sets[2].url)
	if b := get(t, bts+"/v1/report", http.StatusServiceUnavailable, nil); !bytes.Contains(b, []byte("neither a router nor a bounced node")) {
		t.Fatalf("dead shard: report %s, want a 503 from the probe", b)
	}
	dead.Close()
	get(t, bts+"/v1/report", http.StatusServiceUnavailable, nil)
}

// TestClusterShardRejectsMisrouted: a record whose substream another
// node owns is refused with a line-numbered 400 naming the owner, in
// both streamed and batch admission.
func TestClusterShardRejectsMisrouted(t *testing.T) {
	records, env := fixture(t)
	// Post a record shard 1 owns to shard 0.
	strays := split(records, 3)[1]
	if len(strays) == 0 {
		t.Skip("corpus has no shard-1 record")
	}
	shard := single(t, row{cfg: bounced.Config{Env: env, ShardCount: 3, ShardIndex: 0}})

	body := encodeNDJSON(t, strays[:1])
	ir := send(t, shard.url, batch{raw: body})
	if ir.status != http.StatusBadRequest || !strings.Contains(ir.Error, "owned by shard 1") {
		t.Fatalf("streamed misroute: status %d error %q", ir.status, ir.Error)
	}
	ir = send(t, shard.url, batch{id: "misroute-1", declared: 1, raw: body})
	if ir.status != http.StatusBadRequest || !strings.Contains(ir.Error, "owned by shard 1") {
		t.Fatalf("batch misroute: status %d error %q", ir.status, ir.Error)
	}
}

// TestClusterChaosTornShardStream sweeps seeds over the failure the
// batch protocol exists for: one shard's upload dies mid-body, the
// client re-feeds the same batch ID, and the final coordinator report
// is still byte-identical to batch.
func TestClusterChaosTornShardStream(t *testing.T) {
	records, env := fixture(t)
	want := batchReport(t, records, env, bounce.PartialSections)

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Queue depth must admit a whole shard's corpus as one
		// all-or-nothing batch.
		c := boot(t, row{shards: 3, cfg: bounced.Config{Env: env, QueueDepth: len(records)}})
		victim := rng.Intn(3)
		for i, part := range split(records, 3) {
			if len(part) == 0 {
				continue
			}
			b := batch{id: fmt.Sprintf("chaos-%d-%d", seed, i), declared: len(part), raw: encodeNDJSON(t, part)}
			if i == victim {
				// Tear the body at a random interior byte. The declared
				// record count makes any truncation reject atomically.
				torn := b
				torn.raw = b.raw[:1+rng.Intn(len(b.raw)-1)]
				if ir := send(t, c.sets[i].url, torn); ir.status == http.StatusOK {
					t.Fatalf("seed %d: torn batch (cut %d of %d) was accepted", seed, len(torn.raw), len(b.raw))
				}
			}
			if ir := send(t, c.sets[i].url, b); ir.status != http.StatusOK || ir.Accepted != len(part) {
				t.Fatalf("seed %d shard %d: status %d accepted %d of %d: %s",
					seed, i, ir.status, ir.Accepted, len(part), ir.Error)
			}
		}
		if got := get(t, c.coord+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: post-chaos report diverges from batch (%d vs %d bytes)",
				seed, len(got), len(want))
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
	c := fedShards(t, records, env, 2)
	counter := func(url, key string) float64 {
		t.Helper()
		var stats map[string]any
		b := get(t, url+"/v1/stats", http.StatusOK, &stats)
		n, ok := stats[key].(float64)
		if !ok {
			t.Fatalf("stats has no %q: %s", key, b)
		}
		return n
	}
	refused := func(url, sections, wantErr string) {
		t.Helper()
		if b := get(t, url+"/v1/report?section="+sections, http.StatusBadRequest, nil); !bytes.Contains(b, []byte(wantErr)) {
			t.Fatalf("section=%s: body %s, want 400 with %q", sections, b, wantErr)
		}
	}

	node := c.sets[0].url
	before := counter(node, "snapshots")
	refused(node, "table1,nope", `bounce: unknown section \"nope\"`)
	if after := counter(node, "snapshots"); after != before {
		t.Errorf("node: a refused report took %v snapshot(s)", after-before)
	}
	get(t, node+"/v1/report?section=table1,squat", http.StatusOK, nil)
	if after := counter(node, "snapshots"); after != before+1 {
		t.Errorf("node: a served report moved snapshots by %v, want 1", after-before)
	}

	// A coordinator's /v1/stats is itself one fan-in.
	base := counter(c.coord, "fanins")
	refused(c.coord, "table1,nope", `bounce: unknown section \"nope\"`)
	refused(c.coord, "table1,squat", `needs the full corpus`)
	if after := counter(c.coord, "fanins"); after != base+1 {
		t.Errorf("coordinator: two refused reports fanned in %v time(s)", after-base-1)
	}
	get(t, c.coord+"/v1/report?section=table1", http.StatusOK, nil)
	if after := counter(c.coord, "fanins"); after != base+3 {
		t.Errorf("coordinator: a served report and two stats calls moved fanins by %v, want 3", after-base)
	}
}
