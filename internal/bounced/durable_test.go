package bounced_test

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
)

// sendBatches posts records in batches of size per, with IDs
// "<prefix>-<index>" counting from firstIdx.
func sendBatches(t *testing.T, url, prefix string, firstIdx int, records []dataset.Record, per int) int {
	t.Helper()
	idx := firstIdx
	for off := 0; off < len(records); off += per {
		end := min(off+per, len(records))
		ir := send(t, url, batch{id: fmt.Sprintf("%s-%d", prefix, idx), recs: records[off:end]})
		if ir.status != http.StatusOK || ir.Accepted != end-off {
			t.Fatalf("batch %s-%d: status %d accepted %d: %s", prefix, idx, ir.status, ir.Accepted, ir.Error)
		}
		idx++
	}
	return idx
}

// TestDurableRestartResume: a graceful Drain checkpoints, the next boot
// is replay-free, and the resumed server keeps producing batch-identical
// reports as ingestion continues past the restart.
func TestDurableRestartResume(t *testing.T) {
	records, env := fixture(t)
	half := len(records) / 2

	n := single(t, row{store: fsEngine, cfg: bounced.Config{Env: env}})
	next := sendBatches(t, n.url, "a", 0, records[:half], 200)
	if got := n.drain(); got != uint64(half) {
		t.Fatalf("drained %d records, want %d", got, half)
	}

	n.restart()
	if ri := n.srv.Recovery(); ri.CheckpointRecords != uint64(half) || ri.Replayed != 0 {
		t.Fatalf("after clean drain: recovery %+v, want checkpoint at %d and no replay", ri, half)
	}
	if got, want := get(t, n.url+reportAll, http.StatusOK, nil), batchReport(t, records[:half], env, bounce.AllSections); !bytes.Equal(got, want) {
		t.Fatalf("post-restart report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
	sendBatches(t, n.url, "a", next, records[half:], 200)
	if got, want := get(t, n.url+reportAll, http.StatusOK, nil), batchReport(t, records, env, bounce.AllSections); !bytes.Equal(got, want) {
		t.Fatalf("resumed report diverges from batch over the full corpus (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCrashRecoveryDifferential is the in-process kill -9 drill: Abort
// discards the queue tail mid-stream, recovery rebuilds it from the
// checkpoint plus the WAL tail, a client retry of an already-acked
// batch still dedups, and once the stream finishes the report is
// byte-identical to a batch run — zero loss, zero double-count.
func TestCrashRecoveryDifferential(t *testing.T) {
	records, env := fixture(t)
	per := 200
	if len(records) < 6*per {
		per = len(records) / 6
	}
	cut1 := 2 * per // checkpoint pinned here
	cut := 4 * per  // crash point, at a batch boundary

	n := single(t, row{store: fsEngine, cfg: bounced.Config{Env: env}})
	next := sendBatches(t, n.url, "b", 0, records[:cut1], per)
	// Pin a mid-stream checkpoint, then keep ingesting past it.
	if resp := do(t, http.MethodPost, n.url+"/v1/checkpoint"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/checkpoint status %d", resp.StatusCode)
	}
	lastSent := sendBatches(t, n.url, "b", next, records[cut1:cut], per)
	n.kill() // the crash: buffered queue records are dropped

	n.restart()
	ri := n.srv.Recovery()
	if ri.CheckpointRecords == 0 {
		t.Fatalf("recovery found no checkpoint: %+v", ri)
	}
	if ri.CheckpointRecords+uint64(ri.Replayed) != uint64(cut) {
		t.Fatalf("recovery covers %d+%d records, want %d", ri.CheckpointRecords, ri.Replayed, cut)
	}

	// A retry of the last pre-crash batch (its ack may have been lost in
	// flight) must dedup against the recovered window, not double-count.
	retry := send(t, n.url, batch{id: fmt.Sprintf("b-%d", lastSent-1), recs: records[cut-per : cut]})
	if retry.status != http.StatusOK || !retry.Deduped || retry.Accepted != per {
		t.Fatalf("post-crash retry: status %d deduped %v accepted %d", retry.status, retry.Deduped, retry.Accepted)
	}

	sendBatches(t, n.url, "b", lastSent, records[cut:], per)
	got := get(t, n.url+reportAll, http.StatusOK, nil)
	want := batchReport(t, records, env, bounce.AllSections)
	if !bytes.Equal(got, want) {
		tmp := os.TempDir()
		os.WriteFile(filepath.Join(tmp, "bounced_crash_online.txt"), got, 0o644)
		os.WriteFile(filepath.Join(tmp, "bounced_crash_batch.txt"), want, 0o644)
		t.Fatalf("post-crash report diverges from batch (%d vs %d bytes); dumps in %s", len(got), len(want), tmp)
	}

	// The balance: the retried batch is the only dedup, nothing was shed
	// or rejected, so accepted + deduped covers everything presented.
	var st struct {
		Deduped    uint64 `json:"records_deduped"`
		Durability *struct {
			WALSegments int    `json:"wal_segments"`
			NextIndex   uint64 `json:"next_index"`
		} `json:"durability"`
	}
	get(t, n.url+"/v1/stats", http.StatusOK, &st)
	if st.Deduped != uint64(per) {
		t.Fatalf("deduped %d records, want %d", st.Deduped, per)
	}
	if st.Durability == nil || st.Durability.NextIndex != uint64(len(records)) {
		t.Fatalf("durability stats: %+v, want next_index %d", st.Durability, len(records))
	}
}

// TestCrashRecoveryTornTail: a crash mid-write leaves a torn trailing
// frame; recovery truncates it, drops the uncommitted batch, and the
// client's retry of that batch restores zero loss.
func TestCrashRecoveryTornTail(t *testing.T) {
	records, env := fixture(t)
	per := 150
	total := 4 * per

	n := single(t, row{store: fsEngine, cfg: bounced.Config{Env: env}})
	sendBatches(t, n.url, "c", 0, records[:total], per)
	n.kill()

	// Tear the log: cut into the final frame (the last batch's commit
	// marker), the signature of a power cut mid-write.
	segs, err := filepath.Glob(filepath.Join(n.dir, "wal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	n.restart()
	ri := n.srv.Recovery()
	if !ri.TornTruncated {
		t.Fatalf("recovery did not flag the torn tail: %+v", ri)
	}
	if ri.DroppedUncommitted != per {
		t.Fatalf("dropped %d uncommitted records, want the whole trailing batch (%d)", ri.DroppedUncommitted, per)
	}

	// Retry every batch, as a client that never saw acks would: the
	// dropped one re-ingests, the surviving ones dedup.
	reingested := 0
	for i := 0; i < total/per; i++ {
		ir := send(t, n.url, batch{id: fmt.Sprintf("c-%d", i), recs: records[i*per : (i+1)*per]})
		if ir.status != http.StatusOK {
			t.Fatalf("retry c-%d: status %d: %s", i, ir.status, ir.Error)
		}
		if !ir.Deduped {
			reingested++
		}
	}
	if reingested != 1 {
		t.Fatalf("%d batches re-ingested on retry, want exactly the dropped one", reingested)
	}
	got := get(t, n.url+reportAll, http.StatusOK, nil)
	want := batchReport(t, records[:total], env, bounce.AllSections)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-torn-tail report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDurableStreamPath: the non-batch (streamed NDJSON) ingest path is
// WAL-backed too — an Abort after a plain POST loses nothing.
func TestDurableStreamPath(t *testing.T) {
	records, env := fixture(t)
	const total = 300

	n := single(t, row{store: fsEngine, cfg: bounced.Config{Env: env}})
	if ir := send(t, n.url, batch{recs: records[:total]}); ir.status != http.StatusOK || ir.Accepted != total {
		t.Fatalf("stream ingest: status %d accepted %d", ir.status, ir.Accepted)
	}
	n.kill()

	n.restart()
	if got := n.srv.Recovery().Replayed; got != total {
		t.Fatalf("replayed %d records, want %d", got, total)
	}
	got := get(t, n.url+reportAll, http.StatusOK, nil)
	want := batchReport(t, records[:total], env, bounce.AllSections)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash stream report diverges (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDurableCheckpointBuildsNoStudy: a checkpoint persists the state
// recovery reads and nothing else — no snapshot is taken for it, and it
// carries exactly the three sections.
func TestDurableCheckpointBuildsNoStudy(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{store: memEngine, cfg: bounced.Config{Env: env}})
	sendBatches(t, n.url, "c", 0, records[:600], 200)
	waitConsumed(t, n.srv, 600)

	if resp := do(t, http.MethodPost, n.url+"/v1/checkpoint"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/checkpoint status %d", resp.StatusCode)
	}
	var st struct {
		Snapshots float64 `json:"snapshots"`
	}
	if get(t, n.url+"/v1/stats", http.StatusOK, &st); st.Snapshots != 0 {
		t.Fatalf("the checkpoint took %v snapshots, want none", st.Snapshots)
	}
	cp, err := n.eng.Recover()
	if err != nil || cp == nil || cp.Records != 600 {
		t.Fatalf("checkpoint %+v, err %v; want one at 600 records", cp, err)
	}
	var names []string
	for name := range cp.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	if want := []string{"dedup", "incremental", "repl"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("checkpoint sections %v, want %v", names, want)
	}
}

// TestDurableRecoversParentCheckpoint: builds before this one wrote a
// fourth, advisory "partial" section into every checkpoint. A data
// directory holding one — the bytes such a build wrote, or bytes of a
// partial format this build cannot decode — boots, replays its WAL tail
// and serves the batch-identical report: sections nobody reads cannot
// keep a node down.
func TestDurableRecoversParentCheckpoint(t *testing.T) {
	records, env := fixture(t)
	half := len(records) / 2
	want := batchReport(t, records, env, bounce.AllSections)
	parent := analysis.NewFromSource(dataset.NewSliceSource(records[:half]),
		analysis.DefaultPipelineConfig(), env).Partials().Marshal()
	foreign := bytes.Clone(parent)
	foreign[4] = 0x7f // the envelope's format version, after the 4-byte magic
	for name, blob := range map[string][]byte{"parent bytes": parent, "foreign version": foreign} {
		t.Run(name, func(t *testing.T) {
			n := single(t, row{store: fsEngine, cfg: bounced.Config{Env: env}})
			next := sendBatches(t, n.url, "p", 0, records[:half], 200)
			waitConsumed(t, n.srv, half)
			if err := n.srv.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			sendBatches(t, n.url, "p", next, records[half:], 200)
			n.kill() // no final checkpoint: the second half is WAL tail

			eng := n.openFS()
			cp, err := eng.Recover()
			if err != nil || cp == nil || cp.Records != uint64(half) {
				t.Fatalf("checkpoint %+v, err %v; want one at %d records", cp, err, half)
			}
			cp.Sections["partial"] = blob
			if err := eng.Checkpoint(cp); err != nil {
				t.Fatal(err)
			}
			eng.Close()

			n.restart() // the boot over a checkpoint with a partial section must succeed
			if ri := n.srv.Recovery(); ri.CheckpointRecords != uint64(half) || ri.Replayed != len(records)-half {
				t.Fatalf("recovery %+v, want checkpoint at %d and %d replayed", ri, half, len(records)-half)
			}
			if got := get(t, n.url+reportAll, http.StatusOK, nil); !bytes.Equal(got, want) {
				t.Fatalf("report over a parent-format data dir diverges from batch (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
