package bounced_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
)

// walFiles returns dir's WAL segments by name.
func walFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = b
	}
	return files
}

// recoveredReport renders every section from what a restart on dir
// would recover.
func recoveredReport(t *testing.T, dir string, env *analysis.Environment) []byte {
	t.Helper()
	inc, _, err := bounced.RecoverIncremental(dir, analysis.DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := inc.Snapshot(env)
	st := &bounce.Study{Records: a.Records, Analysis: a}
	st.Detections = a.Detect()
	var buf bytes.Buffer
	if err := st.WriteReport(&buf, bounce.AllSections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStandbyLogIsPrimaryLog: a standby stores the bytes it was shipped,
// so after a replicated ingest its segments are its primary's, file for
// file and byte for byte — named batches, unnamed streamed groups, a
// bare record, lines that are mostly escapes, and a record no decode
// and second encode would have written the same way (a string that is
// not UTF-8, which the log holds as \ufffd escapes and a decoder hands
// back as U+FFFD itself). Either directory then recovers to the same
// report.
func TestStandbyLogIsPrimaryLog(t *testing.T) {
	records, env := fixture(t)
	records = records[:1200]
	pair := boot(t, row{standby: true, store: fsEngine, segmentBytes: 96 << 10, cfg: bounced.Config{Env: env}}).sets[0]
	pdir, sdir := pair.primary.dir, pair.standby.dir
	waitFor(t, 5*time.Second, "the standby's first poll", func() bool { return pair.sync.Status().Polls > 0 })

	hostile := records[7].Clone()
	hostile.From = `"<o'brien&co>" <o\b@a.example>`
	hostile.DeliveryResult = []string{"550 5.1.1 <x@y>: \"quoted\" \\ back\tslash\r\n & <<<>>> \u2028 sep \x00\x1f ctl", "250 2.0.0 <ok>"}
	hostile.DeliveryLatency = []int64{-1, 1<<63 - 1}
	hostile.FromIP, hostile.ToIP = []string{"5.0.0.1", "5.0.0.2"}, []string{"20.0.0.9", ""}
	notUTF8 := records[8].Clone()
	notUTF8.DeliveryResult = []string{"554 bad bytes \xff\xfe in the reply"}
	notUTF8.DeliveryLatency = []int64{5}
	notUTF8.FromIP, notUTF8.ToIP = []string{"5.0.0.1"}, []string{"20.0.0.9"}

	url := pair.primary.url
	sent := sendBatches(t, url, "ids", 0, records[:600], 150)
	total := 600
	if ir := send(t, url, batch{recs: records[600:900]}); ir.status != 200 || ir.Accepted != 300 {
		t.Fatalf("streamed group: %+v", ir)
	}
	total += 300
	for _, one := range []dataset.Record{records[900], hostile} {
		if ir := send(t, url, batch{recs: []dataset.Record{one}}); ir.status != 200 || ir.Accepted != 1 {
			t.Fatalf("bare record: %+v", ir)
		}
		total++
	}
	if ir := send(t, url, batch{id: "hostile", recs: []dataset.Record{hostile, records[901], hostile}}); ir.status != 200 || ir.Accepted != 3 {
		t.Fatalf("escape-heavy batch: %+v", ir)
	}
	total += 3
	if n, err := pair.primary.srv.IngestBatch([]dataset.Record{notUTF8, records[902]}); err != nil || n != 2 {
		t.Fatalf("in-process producer: %d, %v", n, err)
	}
	total += 2
	// One more acked batch: its semi-sync gate holds the reply until the
	// standby has applied everything before it too.
	sendBatches(t, url, "ids", sent, records[903:1200], 150)
	total += 297
	waitFor(t, 10*time.Second, "the standby's log to reach the primary's", func() bool {
		return pair.standby.srv.AppliedIndex() == uint64(total)
	})

	pfiles, sfiles := walFiles(t, pdir), walFiles(t, sdir)
	if len(pfiles) < 3 {
		t.Fatalf("primary wrote %d segments; the test wants rotation in play", len(pfiles))
	}
	if len(sfiles) != len(pfiles) {
		t.Fatalf("standby has %d segments, primary %d", len(sfiles), len(pfiles))
	}
	for name, want := range pfiles {
		if got, ok := sfiles[name]; !ok || !bytes.Equal(got, want) {
			t.Errorf("segment %s: standby holds %d bytes (present: %v), primary %d — not the same log", name, len(got), ok, len(want))
		}
	}
	if p, s := recoveredReport(t, pdir, env), recoveredReport(t, sdir, env); !bytes.Equal(p, s) {
		t.Fatalf("recovery over the primary's directory and the standby's render different reports (%d vs %d bytes)", len(p), len(s))
	}
}
