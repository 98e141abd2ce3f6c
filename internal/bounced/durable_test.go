package bounced_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/store"
)

// openEngine opens (or reopens) a filesystem storage engine on dir.
func openEngine(t *testing.T, dir string) *store.FS {
	t.Helper()
	eng, err := store.Open(store.FSOptions{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// postBatch sends one idempotent X-Batch-Id batch.
func postBatch(t *testing.T, url, id string, records []dataset.Record) ingestReply {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/records", bytes.NewReader(encodeNDJSON(t, records)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerBatchID, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestReply
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	ir.status = resp.StatusCode
	return ir
}

const headerBatchID = "X-Batch-Id"

// sendBatches posts records in batches of size per, with IDs
// "<prefix>-<index>" counting from firstIdx.
func sendBatches(t *testing.T, url, prefix string, firstIdx int, records []dataset.Record, per int) int {
	t.Helper()
	idx := firstIdx
	for off := 0; off < len(records); off += per {
		end := off + per
		if end > len(records) {
			end = len(records)
		}
		ir := postBatch(t, url, fmt.Sprintf("%s-%d", prefix, idx), records[off:end])
		if ir.status != http.StatusOK || ir.Accepted != end-off {
			t.Fatalf("batch %s-%d: status %d accepted %d: %s", prefix, idx, ir.status, ir.Accepted, ir.Error)
		}
		idx++
	}
	return idx
}

// reportBytes fetches the full online report.
func reportBytes(t *testing.T, url string) []byte {
	t.Helper()
	status, got := getBody(t, url+"/v1/report?section=all")
	if status != http.StatusOK {
		t.Fatalf("/v1/report status %d", status)
	}
	return got
}

// TestDurableRestartResume: a graceful Drain checkpoints, the next boot
// is replay-free, and the resumed server keeps producing batch-identical
// reports as ingestion continues past the restart.
func TestDurableRestartResume(t *testing.T) {
	records, env := fixture(t)
	dir := t.TempDir()
	half := len(records) / 2

	srv := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	next := sendBatches(t, ts.URL, "a", 0, records[:half], 200)
	ts.Close()
	if got := srv.Drain(); got != uint64(half) {
		t.Fatalf("drained %d records, want %d", got, half)
	}

	srv2 := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	defer srv2.Abort()
	ri := srv2.Recovery()
	if ri.CheckpointRecords != uint64(half) || ri.Replayed != 0 {
		t.Fatalf("after clean drain: recovery %+v, want checkpoint at %d and no replay", ri, half)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if got, want := reportBytes(t, ts2.URL), batchReport(t, records[:half], env, bounce.AllSections); !bytes.Equal(got, want) {
		t.Fatalf("post-restart report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
	sendBatches(t, ts2.URL, "a", next, records[half:], 200)
	if got, want := reportBytes(t, ts2.URL), batchReport(t, records, env, bounce.AllSections); !bytes.Equal(got, want) {
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
	dir := t.TempDir()
	per := 200
	if len(records) < 6*per {
		per = len(records) / 6
	}
	cut1 := 2 * per // checkpoint pinned here
	cut := 4 * per  // crash point, at a batch boundary

	srv := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	next := sendBatches(t, ts.URL, "b", 0, records[:cut1], per)
	// Pin a mid-stream checkpoint, then keep ingesting past it.
	resp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/checkpoint status %d", resp.StatusCode)
	}
	lastSent := sendBatches(t, ts.URL, "b", next, records[cut1:cut], per)
	ts.Close()
	srv.Abort() // the crash: buffered queue records are dropped

	srv2 := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	defer srv2.Abort()
	ri := srv2.Recovery()
	if ri.CheckpointRecords == 0 {
		t.Fatalf("recovery found no checkpoint: %+v", ri)
	}
	if ri.CheckpointRecords+uint64(ri.Replayed) != uint64(cut) {
		t.Fatalf("recovery covers %d+%d records, want %d", ri.CheckpointRecords, ri.Replayed, cut)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// A retry of the last pre-crash batch (its ack may have been lost in
	// flight) must dedup against the recovered window, not double-count.
	retry := postBatch(t, ts2.URL, fmt.Sprintf("b-%d", lastSent-1), records[cut-per:cut])
	if retry.status != http.StatusOK || !retry.Deduped || retry.Accepted != per {
		t.Fatalf("post-crash retry: status %d deduped %v accepted %d", retry.status, retry.Deduped, retry.Accepted)
	}

	sendBatches(t, ts2.URL, "b", lastSent, records[cut:], per)
	got := reportBytes(t, ts2.URL)
	want := batchReport(t, records, env, bounce.AllSections)
	if !bytes.Equal(got, want) {
		tmp := os.TempDir()
		os.WriteFile(filepath.Join(tmp, "bounced_crash_online.txt"), got, 0o644)
		os.WriteFile(filepath.Join(tmp, "bounced_crash_batch.txt"), want, 0o644)
		t.Fatalf("post-crash report diverges from batch (%d vs %d bytes); dumps in %s", len(got), len(want), tmp)
	}

	// The balance: the retried batch is the only dedup, nothing was shed
	// or rejected, so accepted + deduped covers everything presented.
	status, body := getBody(t, ts2.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats status %d", status)
	}
	var st struct {
		Deduped    uint64 `json:"records_deduped"`
		Durability *struct {
			WALSegments int    `json:"wal_segments"`
			NextIndex   uint64 `json:"next_index"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
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
	dir := t.TempDir()
	per := 150
	n := 4 * per

	srv := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	sendBatches(t, ts.URL, "c", 0, records[:n], per)
	ts.Close()
	srv.Abort()

	// Tear the log: cut into the final frame (the last batch's commit
	// marker), the signature of a power cut mid-write.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.wal"))
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

	srv2 := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	defer srv2.Abort()
	ri := srv2.Recovery()
	if !ri.TornTruncated {
		t.Fatalf("recovery did not flag the torn tail: %+v", ri)
	}
	if ri.DroppedUncommitted != per {
		t.Fatalf("dropped %d uncommitted records, want the whole trailing batch (%d)", ri.DroppedUncommitted, per)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// Retry every batch, as a client that never saw acks would: the
	// dropped one re-ingests, the surviving ones dedup.
	reingested := 0
	for i := 0; i < n/per; i++ {
		ir := postBatch(t, ts2.URL, fmt.Sprintf("c-%d", i), records[i*per:(i+1)*per])
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
	got := reportBytes(t, ts2.URL)
	want := batchReport(t, records[:n], env, bounce.AllSections)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-torn-tail report diverges from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDurableStreamPath: the non-batch (streamed NDJSON) ingest path is
// WAL-backed too — an Abort after a plain POST loses nothing.
func TestDurableStreamPath(t *testing.T) {
	records, env := fixture(t)
	dir := t.TempDir()
	n := 300

	srv := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	ts := httptest.NewServer(srv.Handler())
	ir := postRecords(t, ts.URL, encodeNDJSON(t, records[:n]))
	if ir.status != http.StatusOK || ir.Accepted != n {
		t.Fatalf("stream ingest: status %d accepted %d", ir.status, ir.Accepted)
	}
	ts.Close()
	srv.Abort()

	srv2 := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
	defer srv2.Abort()
	if got := srv2.Recovery().Replayed; got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	got := reportBytes(t, ts2.URL)
	want := batchReport(t, records[:n], env, bounce.AllSections)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash stream report diverges (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDurableCheckpointBuildsNoStudy: a checkpoint persists the state
// recovery reads and nothing else — no snapshot is taken for it, and it
// carries exactly the three sections.
func TestDurableCheckpointBuildsNoStudy(t *testing.T) {
	records, env := fixture(t)
	eng := store.NewMem()
	srv := newServer(t, bounced.Config{Env: env, Store: eng})
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sendBatches(t, ts.URL, "c", 0, records[:600], 200)
	waitConsumed(t, srv, 600)

	resp, err := http.Post(ts.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/checkpoint status %d", resp.StatusCode)
	}
	if n := serverStats(t, ts.URL)["snapshots"].(float64); n != 0 {
		t.Fatalf("the checkpoint took %v snapshots, want none", n)
	}
	cp, err := eng.Recover()
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
			dir := t.TempDir()
			srv := newServer(t, bounced.Config{Env: env, Store: openEngine(t, dir)})
			ts := httptest.NewServer(srv.Handler())
			next := sendBatches(t, ts.URL, "p", 0, records[:half], 200)
			waitConsumed(t, srv, half)
			if err := srv.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			sendBatches(t, ts.URL, "p", next, records[half:], 200)
			ts.Close()
			srv.Abort() // no final checkpoint: the second half is WAL tail

			eng := openEngine(t, dir)
			cp, err := eng.Recover()
			if err != nil || cp == nil || cp.Records != uint64(half) {
				t.Fatalf("checkpoint %+v, err %v; want one at %d records", cp, err, half)
			}
			cp.Sections["partial"] = blob
			if err := eng.Checkpoint(cp); err != nil {
				t.Fatal(err)
			}
			eng.Close()

			srv2, err := bounced.New(bounced.Config{Env: env, Store: openEngine(t, dir)})
			if err != nil {
				t.Fatalf("boot over a checkpoint with a partial section: %v", err)
			}
			defer srv2.Abort()
			if ri := srv2.Recovery(); ri.CheckpointRecords != uint64(half) || ri.Replayed != len(records)-half {
				t.Fatalf("recovery %+v, want checkpoint at %d and %d replayed", ri, half, len(records)-half)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			if got := reportBytes(t, ts2.URL); !bytes.Equal(got, want) {
				t.Fatalf("report over a parent-format data dir diverges from batch (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}
