package bounced_test

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/replication"
)

// The tiny corpus is generated once: every test replays slices of it.
var (
	fixtureOnce sync.Once
	fixtureRecs []dataset.Record
	fixtureEnv  *analysis.Environment
)

func fixture(t *testing.T) ([]dataset.Record, *analysis.Environment) {
	t.Helper()
	fixtureOnce.Do(func() {
		st := bounce.Run(bounce.Options{Scale: bounce.ScaleTiny})
		fixtureRecs = st.Records.Flatten()
		fixtureEnv = bounce.NewEnvironment(st.World)
	})
	if len(fixtureRecs) == 0 {
		t.Fatal("empty fixture corpus")
	}
	return fixtureRecs, fixtureEnv
}

// batchReport renders the sections the way bounceanalyze does over a
// record file: single-pass streaming analysis, then report.
func batchReport(t *testing.T, records []dataset.Record, env *analysis.Environment, sections []bounce.Section) []byte {
	t.Helper()
	a := analysis.NewFromSource(dataset.NewSliceSource(records), analysis.DefaultPipelineConfig(), env)
	st := &bounce.Study{Records: a.Records, Analysis: a}
	st.Detections = a.Detect()
	var buf bytes.Buffer
	if err := st.WriteReport(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportMatchesBatchBytes is the differential test behind the
// service's core invariant: at any checkpoint, GET /v1/report returns
// byte-identical output to a batch bounceanalyze run over exactly the
// records ingested so far.
func TestReportMatchesBatchBytes(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env}})

	cut := len(records) / 2
	checkpoints := []struct {
		name string
		upto int
	}{{"half", cut}, {"full", len(records)}}
	sent := 0
	for _, cp := range checkpoints {
		// Ingest the next slice in several batches to exercise batching.
		for sent < cp.upto {
			end := min(sent+200, cp.upto)
			ir := send(t, n.url, batch{recs: records[sent:end]})
			if ir.status != http.StatusOK || ir.Accepted != end-sent {
				t.Fatalf("%s: batch [%d:%d): status %d accepted %d: %s",
					cp.name, sent, end, ir.status, ir.Accepted, ir.Error)
			}
			sent = end
		}
		want := batchReport(t, records[:cp.upto], env, bounce.AllSections)
		if got := get(t, n.url+reportAll, http.StatusOK, nil); !bytes.Equal(got, want) {
			// Dump both reports so the divergence is diffable.
			dir := os.TempDir()
			os.WriteFile(filepath.Join(dir, "bounced_online.txt"), got, 0o644)
			os.WriteFile(filepath.Join(dir, "bounced_batch.txt"), want, 0o644)
			t.Fatalf("%s: online report diverges from batch over %d records\nonline %d bytes, batch %d bytes; dumps in %s",
				cp.name, cp.upto, len(got), len(want), dir)
		}
	}

	// Section subsets go through the same path as bounceanalyze -section.
	want := batchReport(t, records, env, []bounce.Section{bounce.SecTable1, bounce.SecFig8})
	if got := get(t, n.url+"/v1/report?section=table1,fig8", http.StatusOK, nil); !bytes.Equal(got, want) {
		t.Fatalf("section subset diverges (%d vs %d bytes)", len(got), len(want))
	}
	get(t, n.url+"/v1/report?section=nope", http.StatusBadRequest, nil)
}

// TestDrainZeroLoss verifies the graceful-shutdown guarantee: every
// record admitted before Drain is in the store when Drain returns,
// even under concurrent producers and a tiny queue.
func TestDrainZeroLoss(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env, QueueDepth: 2}})
	srv := n.srv
	const producers = 4
	per := len(records) / producers
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(part []dataset.Record) {
			defer wg.Done()
			for i := range part {
				if _, err := srv.IngestBatch(part[i : i+1]); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(records[w*per : (w+1)*per])
	}
	wg.Wait()
	want := uint64(producers * per)
	if got := n.drain(); got != want {
		t.Fatalf("drain consumed %d, want %d", got, want)
	}
	if srv.Consumed() != want {
		t.Fatalf("consumed %d after drain, want %d", srv.Consumed(), want)
	}
	if _, err := srv.IngestBatch(records[:1]); err == nil {
		t.Fatal("ingest after drain succeeded")
	}
	// The final flush covers every drained record.
	var buf bytes.Buffer
	if err := srv.WriteFinalReport(&buf, []bounce.Section{bounce.SecOverview}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("%d", want)) {
		t.Errorf("final report does not mention %d records:\n%s", want, buf.String())
	}
}

// TestIngestMalformedLine checks the line-numbered 400 contract: the
// bad line's 1-based number is reported and every preceding valid
// line stays accepted.
func TestIngestMalformedLine(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env}})

	body := append(encodeNDJSON(t, records[:2]), []byte("{this is not json}\n")...)
	ir := send(t, n.url, batch{raw: body})
	if ir.status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", ir.status)
	}
	if ir.Line != 3 || ir.Accepted != 2 {
		t.Fatalf("line %d accepted %d, want line 3 accepted 2", ir.Line, ir.Accepted)
	}
	if got := n.drain(); got != 2 {
		t.Fatalf("consumed %d, want the 2 valid lines", got)
	}
}

// TestIngestGzip covers both gzip paths: declared via Content-Encoding
// and sniffed from the magic bytes.
func TestIngestGzip(t *testing.T) {
	records, env := fixture(t)
	n := single(t, row{cfg: bounced.Config{Env: env}})

	if ir := send(t, n.url, batch{recs: records[:50], gzip: true}); ir.status != http.StatusOK || ir.Accepted != 50 {
		t.Fatalf("declared gzip: status %d accepted %d", ir.status, ir.Accepted)
	}
	// Same bytes, no header: the magic-byte sniff must catch it.
	if ir := send(t, n.url, batch{raw: gzipped(encodeNDJSON(t, records[:50]))}); ir.status != http.StatusOK || ir.Accepted != 50 {
		t.Fatalf("sniffed gzip: status %d accepted %d", ir.status, ir.Accepted)
	}
}

// TestStatsAndMetrics smoke-tests the two observability endpoints.
func TestStatsAndMetrics(t *testing.T) {
	records, env := fixture(t)
	url := single(t, row{cfg: bounced.Config{Env: env, Seed: 42}}).url

	n := 300
	send(t, url, batch{recs: records[:n]})
	// A report arms the live classifier; the next batch is then timed.
	get(t, url+"/v1/report?section=overview", http.StatusOK, nil)
	send(t, url, batch{recs: records[n : 2*n]})
	get(t, url+"/v1/report?section=overview", http.StatusOK, nil)

	var st struct {
		Seed     uint64 `json:"seed"`
		Accepted uint64 `json:"accepted"`
		Consumed uint64 `json:"consumed"`
		Batches  uint64 `json:"batches"`
		Classify struct {
			Count uint64  `json:"count"`
			P50NS float64 `json:"p50_ns"`
		} `json:"classify_latency"`
	}
	get(t, url+"/v1/stats", http.StatusOK, &st)
	if st.Seed != 42 || st.Accepted != uint64(2*n) || st.Consumed != uint64(2*n) || st.Batches != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Classify.Count == 0 || st.Classify.P50NS <= 0 {
		t.Fatalf("classify latency never observed: %+v", st.Classify)
	}

	body := get(t, url+"/metrics", http.StatusOK, nil)
	for _, want := range []string{
		"bounced_records_accepted_total 600",
		"bounced_records_consumed_total 600",
		"bounced_queue_capacity 1024",
		"bounced_bounce_degree_total{degree=\"hard-bounced\"}",
		"bounced_classify_latency_seconds_bucket{le=\"+Inf\"}",
		"bounced_classify_latency_seconds_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestHandlerMountsByCapability: a node mounts the journal's endpoints
// only when it has a journal, every node answers /v1/repl/status, and a
// wrong method is the mux's 405 naming the right one.
func TestHandlerMountsByCapability(t *testing.T) {
	records, _ := fixture(t)
	// The status a primary with a journal answers; a memory-only node
	// 404s all four.
	journal := []struct {
		method, path string
		status       int
	}{
		{http.MethodPost, "/v1/checkpoint", http.StatusOK},
		{http.MethodGet, "/v1/repl/wal?from=10", http.StatusOK}, // the log end: an empty tail
		{http.MethodGet, "/v1/repl/checkpoint", http.StatusOK},
		{http.MethodPost, "/v1/promote", http.StatusConflict}, // nothing to promote
	}
	for name, store := range map[string]engine{"memory": noEngine, "durable": memEngine} {
		n := single(t, row{store: store})
		if _, err := n.srv.IngestBatch(records[:10]); err != nil {
			t.Fatal(err)
		}
		waitConsumed(t, n.srv, 10) // a checkpoint of nothing folded yet writes nothing, and its GET is then a 404
		for _, e := range journal {
			want := e.status
			if store == noEngine {
				want = http.StatusNotFound
			}
			if got := do(t, e.method, n.url+e.path).StatusCode; got != want {
				t.Errorf("%s node: %s %s = %d, want %d", name, e.method, e.path, got, want)
			}
		}
		var ns replication.NodeStatus
		if get(t, n.url+"/v1/repl/status", http.StatusOK, &ns); ns.Role != "primary" || ns.Epoch != 1 {
			t.Errorf("%s node: /v1/repl/status = %+v, want a primary at epoch 1", name, ns)
		}
		resp := do(t, http.MethodGet, n.url+"/v1/records")
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Errorf("%s node: GET /v1/records = %d Allow %q, want 405 Allow POST", name, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
}
