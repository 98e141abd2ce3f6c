package bounced_test

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/bounced"
	"repro/internal/faultinject"
)

// TestChaosDifferentialSeedSweep is the chaos soak: replay the corpus
// through a fault-injecting server with a fault-injecting client —
// torn bodies, truncated gzip, slow-loris sends, duplicate replays,
// server-side torn streams and a stalled consumer forcing 429 sheds —
// retrying every refusal. The run must converge on exactly the clean
// state: a final /v1/report byte-identical to the batch analyzer over
// the same records, and an accounting balance with no record lost or
// double-counted. `make chaos` runs this sweep.
func TestChaosDifferentialSeedSweep(t *testing.T) {
	records, env := fixture(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := os.WriteFile(path, encodeNDJSON(t, records), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := batchReport(t, records, env, bounce.AllSections)

	seeds := []uint64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := single(t, row{cfg: bounced.Config{
				Env: env, QueueDepth: 96, Seed: seed, ReadTimeout: 5 * time.Second,
				// Server-side hostility: torn request streams and a slowed
				// consumer so admission control actually sheds. Corruption
				// faults are excluded on purpose — a flipped byte can still
				// be valid JSON, which is data corruption, not delivery
				// failure, and would (correctly) break byte-equality.
				Faults: &faultinject.Spec{Seed: seed, Torn: 0.2, Stall: 200 * time.Microsecond},
			}})

			cfg := bounced.ChaosConfig{
				URL: n.url, Path: path, BatchSize: 64, Seed: seed, Gzip: seed%2 == 0,
				Faults: &faultinject.Spec{
					Seed: seed + 100, Torn: 0.3, TruncGzip: 0.2, Dup: 0.5,
					Loris: 0.15, LorisPause: time.Millisecond,
				},
			}
			res, err := bounced.Chaos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("chaos seed %d: %d records, %d batches, %d presented, %d retries, %d shed, %d faulted, %d dups (%.2fs) faults=%v",
				seed, res.Records, res.Batches, res.Presented, res.Retries, res.Shed,
				res.Faulted, res.Duplicates, res.Seconds, res.FaultCounts)

			if res.Records != len(records) {
				t.Fatalf("chaos delivered %d records, want %d", res.Records, len(records))
			}
			if res.Faulted == 0 || res.Duplicates == 0 {
				t.Fatalf("fault schedule fired nothing (faulted %d, duplicates %d) — chaos run degenerated to a clean replay", res.Faulted, res.Duplicates)
			}
			if res.Deduped < res.Duplicates {
				t.Fatalf("%d duplicate sends but only %d dedup acks", res.Duplicates, res.Deduped)
			}
			if err := bounced.ChaosVerify(cfg, res); err != nil {
				t.Fatal(err)
			}
			if got := get(t, n.url+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, clean) {
				t.Fatalf("chaos report diverged from clean batch report (%d vs %d bytes)", len(got), len(clean))
			}
		})
	}
}

// TestChaosCleanScheduleIsPlainReplay: an inactive fault spec must
// degrade Chaos to an ordinary idempotent replay with zero damage —
// the client bounced loadgen is. It replays a gzipped file as gzipped
// bodies, so the round trip through the real HTTP stack covers both
// decoders, and the server must have folded every record (ChaosVerify).
func TestChaosCleanScheduleIsPlainReplay(t *testing.T) {
	records, env := fixture(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl.gz")
	if err := os.WriteFile(path, gzipped(encodeNDJSON(t, records)), 0o644); err != nil {
		t.Fatal(err)
	}
	n := single(t, row{cfg: bounced.Config{Env: env}})

	cfg := bounced.ChaosConfig{URL: n.url, Path: path, BatchSize: 128, Seed: 9, Gzip: true}
	res, err := bounced.Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != len(records) || res.Faulted != 0 || res.Duplicates != 0 || res.Retries != 0 {
		t.Fatalf("clean chaos run not clean: %+v", res)
	}
	if want := (len(records) + 127) / 128; res.Batches != want {
		t.Fatalf("sent %d batches, want %d", res.Batches, want)
	}
	if res.Presented != len(records) {
		t.Fatalf("presented %d, want %d", res.Presented, len(records))
	}
	if err := bounced.ChaosVerify(cfg, res); err != nil {
		t.Fatal(err)
	}
}

// TestChaosShardedReplay: the chaos client against two shards, each
// record routed to its owner, under a fault schedule. The balance holds
// over the sum of both shards' counters, and the coordinator's merged
// report equals batch over the whole corpus.
func TestChaosShardedReplay(t *testing.T) {
	records, env := fixture(t)
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	if err := os.WriteFile(path, encodeNDJSON(t, records), 0o644); err != nil {
		t.Fatal(err)
	}
	c := boot(t, row{shards: 2, cfg: bounced.Config{Env: env}})
	cfg := bounced.ChaosConfig{
		ShardURLs: []string{c.sets[0].url, c.sets[1].url}, Path: path, BatchSize: 64, Seed: 5,
		Faults: &faultinject.Spec{Seed: 105, Torn: 0.3, TruncGzip: 0.2, Dup: 0.5},
	}
	res, err := bounced.Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != len(records) || res.Faulted == 0 || res.Duplicates == 0 {
		t.Fatalf("sharded chaos run: %+v, want %d records with faults and duplicates fired", res, len(records))
	}
	if err := bounced.ChaosVerify(cfg, res); err != nil {
		t.Fatal(err)
	}
	want := batchReport(t, records, env, bounce.PartialSections)
	if got := get(t, c.coord+"/v1/report", http.StatusOK, nil); !bytes.Equal(got, want) {
		t.Fatalf("coordinator report after a sharded chaos replay diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
}
