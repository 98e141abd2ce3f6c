package bounced_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/replication"
)

// TestCoordinatorShardURLsNotMutated: URL normalization must work on a
// private copy, not write through the caller's slice.
func TestCoordinatorShardURLsNotMutated(t *testing.T) {
	urls := []string{"http://a:1/", "http://b:2///"}
	want := append([]string(nil), urls...)
	if _, err := bounced.NewCoordinator(bounced.CoordinatorConfig{ShardURLs: urls}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(urls, want) {
		t.Fatalf("caller slice mutated: %v, want %v", urls, want)
	}
}

// TestCoordinatorGatherAbortsOnClientDisconnect: the fan-in must run
// under the inbound request's context, so a report client that hangs up
// cancels the shard fetches promptly instead of leaving them running
// against the shard tier for the fan-in client's full timeout.
func TestCoordinatorGatherAbortsOnClientDisconnect(t *testing.T) {
	var once sync.Once
	canceled := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc(replication.PathStatus, func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(replication.NodeStatus{Role: "primary", Epoch: 1})
	})
	mux.HandleFunc("/v1/partial", func(w http.ResponseWriter, r *http.Request) {
		// Serve nothing until the coordinator gives up on us.
		<-r.Context().Done()
		once.Do(func() { close(canceled) })
	})
	cts := coordinator(t, nil, serve(t, mux))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cts+"/v1/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("report finished despite the blocked shard")
	}
	// The shard-side fetch must be torn down almost immediately after
	// the client walks away — not after the fan-in client's 30s timeout.
	select {
	case <-canceled:
	case <-time.After(3 * time.Second):
		t.Fatal("shard fetch still running after client disconnect")
	}
}

// TestCoordinatorReprobeFollowsNewPrimary: when the primary a router
// reported dies before the partial fetch lands, one re-probe must pick
// up the router's next election instead of failing the gather.
func TestCoordinatorReprobeFollowsNewPrimary(t *testing.T) {
	records, env := fixture(t)
	want := batchReport(t, records, env, bounce.PartialSections)

	live := single(t, row{cfg: bounced.Config{Env: env}})
	if ir := send(t, live.url, batch{recs: records}); ir.status != http.StatusOK {
		t.Fatalf("live shard ingest: %d %s", ir.status, ir.Error)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on

	// A scripted router: the first status probe names the dead primary
	// (it just crashed), every later probe names the promoted survivor.
	var mu sync.Mutex
	probes := 0
	rmux := http.NewServeMux()
	rmux.HandleFunc(replication.PathRouterStatus, func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		probes++
		primary := dead.URL
		if probes > 1 {
			primary = live.url
		}
		mu.Unlock()
		json.NewEncoder(w).Encode(replication.RouterStatus{Primary: primary, PrimaryEpoch: 2})
	})
	cts := coordinator(t, env, serve(t, rmux))

	if got := get(t, cts+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, want) {
		t.Fatalf("re-probed report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
	stats := get(t, cts+"/v1/stats", http.StatusOK, nil)
	for _, needle := range []string{`"reprobes": 1`, `"routed": true`, `"epoch": 2`} {
		if !strings.Contains(string(stats), needle) {
			t.Fatalf("stats missing %s: %s", needle, stats)
		}
	}
}

// TestReplicatedShardsFailover is the composition's acceptance test:
// two shards, each a replica set behind its own router, a coordinator
// fanning in through the routers. Shard 0's primary dies mid-stream,
// its standby promotes at a bumped epoch, the router re-elects it, the
// client's owed retry dedups, and the coordinator's merged report is
// byte-identical to batch — every record classified exactly once
// across the failover. The topology lives in a subtest so its cleanup,
// goroutine audit included, finishes before the parent returns.
func TestReplicatedShardsFailover(t *testing.T) {
	records, env := fixture(t)
	want := batchReport(t, records, env, bounce.PartialSections)
	t.Run("topology", func(t *testing.T) {
		c := boot(t, row{shards: 2, standby: true, router: true, store: memEngine, cfg: bounced.Config{Env: env}})
		s0, s1 := c.sets[0], c.sets[1]
		parts := split(records, 2)
		if len(parts[0]) < 2 || len(parts[1]) < 1 {
			t.Fatalf("degenerate split: %d/%d", len(parts[0]), len(parts[1]))
		}

		// Shard 1 ingests its whole slice through its router, undisturbed.
		if ir := send(t, s1.url, batch{id: "sr1-all", recs: parts[1]}); ir.status != http.StatusOK || ir.Accepted != len(parts[1]) {
			t.Fatalf("shard 1 ingest: %d accepted %d of %d: %s", ir.status, ir.Accepted, len(parts[1]), ir.Error)
		}

		// Shard 0 gets half its slice, then loses its primary.
		half := len(parts[0]) / 2
		if ir := send(t, s0.url, batch{id: "sr0-0", recs: parts[0][:half]}); ir.status != http.StatusOK || ir.Accepted != half {
			t.Fatalf("shard 0 first half: %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
		}
		// Semi-sync acks: everything acked is already on the standby.
		if got, want := s0.standby.srv.AppliedIndex(), s0.primary.srv.AppliedIndex(); got != want {
			t.Fatalf("shard 0 standby applied %d, primary log end %d", got, want)
		}
		s0.primary.kill()
		s0.promote(t)
		if got := s0.standby.srv.Epoch(); got != 2 {
			t.Fatalf("promoted epoch = %d, want 2", got)
		}

		// The retry a client owes for its in-flight batch must dedup on the
		// promoted standby, through the same router address.
		if ir := send(t, s0.url, batch{id: "sr0-0", recs: parts[0][:half]}); ir.status != http.StatusOK || !ir.Deduped {
			t.Fatalf("owed retry via router: status %d deduped %v", ir.status, ir.Deduped)
		}
		// The rest of the stream lands on the survivor.
		if ir := send(t, s0.url, batch{id: "sr0-1", recs: parts[0][half:]}); ir.status != http.StatusOK || ir.Accepted != len(parts[0])-half {
			t.Fatalf("shard 0 second half: %d accepted %d: %s", ir.status, ir.Accepted, ir.Error)
		}
		// Ownership still holds on the promoted standby: a shard-1 record
		// through shard 0's router is refused, not silently absorbed.
		if ir := send(t, s0.url, batch{id: "sr0-stray", recs: parts[1][:1]}); ir.status != http.StatusBadRequest || !strings.Contains(ir.Error, "owned by shard 1") {
			t.Fatalf("misroute after promotion: status %d error %q", ir.status, ir.Error)
		}

		if got := get(t, c.coord+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, want) {
			t.Fatalf("post-failover merged report diverges from batch (%d vs %d bytes)", len(got), len(want))
		}

		// The topology view names the promoted primary and its epoch.
		var cs struct {
			Shards []struct {
				URL     string `json:"url"`
				Routed  bool   `json:"routed"`
				Primary string `json:"primary"`
				Epoch   uint64 `json:"epoch"`
			} `json:"shards"`
		}
		get(t, c.coord+"/v1/stats", http.StatusOK, &cs)
		if len(cs.Shards) != 2 {
			t.Fatalf("stats shards = %d", len(cs.Shards))
		}
		if survivor := s0.standby.url; !cs.Shards[0].Routed || cs.Shards[0].Primary != survivor || cs.Shards[0].Epoch != 2 {
			t.Fatalf("shard 0 view = %+v, want routed primary %s at epoch 2", cs.Shards[0], survivor)
		}
		if !cs.Shards[1].Routed || cs.Shards[1].Epoch != 1 {
			t.Fatalf("shard 1 view = %+v, want routed epoch 1", cs.Shards[1])
		}

		// Metrics expose the per-shard epoch gauges after the gather.
		metrics := string(get(t, c.coord+"/metrics", http.StatusOK, nil))
		if epochLine := fmt.Sprintf("coordinator_shard_epoch{shard=%q} 2", s0.url); !strings.Contains(metrics, epochLine) {
			t.Fatalf("metrics missing %q:\n%s", epochLine, metrics)
		}
		if !strings.Contains(metrics, "coordinator_shard_lag_records{") {
			t.Fatal("metrics missing per-shard lag gauge")
		}
	})
}
