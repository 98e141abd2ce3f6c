package delivery

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/world"
)

// goldenCorpora are the generated corpora testdata/corpus.golden pins:
// the tiny world at two seeds and the default world at 20,000 emails.
func goldenCorpora() []struct {
	name string
	cfg  world.Config
} {
	tiny1 := world.TinyConfig()
	tiny1.Seed = 1
	tiny42 := world.TinyConfig()
	tiny42.Seed = 42
	def := world.DefaultConfig()
	def.TotalEmails = 20_000
	def.Seed = 42
	return []struct {
		name string
		cfg  world.Config
	}{
		{"tiny-seed1", tiny1},
		{"tiny-seed42", tiny42},
		{"default-20000-seed42", def},
	}
}

// corpusDigest delivers cfg's whole workload with workers and returns a
// sha256 over each record's NDJSON line, each record's truth and the
// policy stage counters, and the auth stage's rejection count.
func corpusDigest(t *testing.T, cfg world.Config, workers int) (string, uint64) {
	t.Helper()
	e := New(world.New(cfg))
	h := sha256.New()
	var line []byte
	e.ParallelRun(workers, func(rec dataset.Record, _ *world.Submission, truth Truth) {
		line = append(rec.AppendJSON(line[:0]), '\n')
		h.Write(line)
		fmt.Fprintf(h, "%v\n", truth.AttemptTypes)
	})
	hits := e.Metrics.Snapshot()
	b, err := json.Marshal(hits)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	var auth uint64
	for _, s := range hits {
		if s.Stage == "auth" {
			auth = s.Hits
		}
	}
	return hex.EncodeToString(h.Sum(nil)), auth
}

// TestGeneratedCorpusGolden pins the simulator's output byte for byte:
// records, truth and stage counters for every corpus in goldenCorpora,
// at one worker and at four, must hash to testdata/corpus.golden. A
// change to the simulator that is meant to be invisible must leave
// this file alone. Each corpus must also see the auth stage reject, so
// the path where DKIM decides the verdict is part of what is pinned.
func TestGeneratedCorpusGolden(t *testing.T) {
	want := readCorpusGolden(t)
	for _, c := range goldenCorpora() {
		for _, workers := range []int{1, 4} {
			got, auth := corpusDigest(t, c.cfg, workers)
			if got != want[c.name] {
				t.Errorf("%s workers=%d: corpus sha256 %s, golden %s", c.name, workers, got, want[c.name])
			}
			if auth == 0 {
				t.Errorf("%s workers=%d: the auth stage never rejected", c.name, workers)
			}
		}
	}
}

// readCorpusGolden reads testdata/corpus.golden: one "name sha256"
// pair a line.
func readCorpusGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/corpus.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("corpus.golden: malformed line %q", sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
