package bounce_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/world"
)

// TestWorkerCountInvariance runs the full study at several worker
// counts and requires identical datasets (FNV hash of the serialized
// records), identical Table 1 type distributions, and identical
// Table 2 root-cause attributions — the paper-reproduction numbers
// must not depend on the fan-out width.
func TestWorkerCountInvariance(t *testing.T) {
	type outcome struct {
		hash   uint64
		n      int
		table1 map[string]int
		table2 []string
	}
	run := func(workers int) outcome {
		s := bounce.Run(bounce.Options{Scale: bounce.ScaleTiny, Workers: workers})
		h := fnv.New64a()
		for i := 0; i < s.Records.Len(); i++ {
			b, err := json.Marshal(s.Records.At(i))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		table1 := map[string]int{}
		for typ, n := range s.BouncedPartials().TypeDistribution() {
			table1[typ.String()] = n
		}
		var table2 []string
		for _, row := range s.BouncedPartials().RootCauses(s.Detections).Rows {
			table2 = append(table2, fmt.Sprintf("%s|%s|%d", row.Type, row.Reason, row.Emails))
		}
		return outcome{hash: h.Sum64(), n: s.Records.Len(), table1: table1, table2: table2}
	}

	base := run(1)
	if base.n == 0 {
		t.Fatal("study produced no records")
	}
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.n != base.n {
			t.Errorf("workers=%d: %d records, workers=1: %d", workers, got.n, base.n)
		}
		if got.hash != base.hash {
			t.Errorf("workers=%d: dataset hash %x, workers=1: %x", workers, got.hash, base.hash)
		}
		if !reflect.DeepEqual(got.table1, base.table1) {
			t.Errorf("workers=%d: Table 1 differs:\n%v\nvs\n%v", workers, got.table1, base.table1)
		}
		if !reflect.DeepEqual(got.table2, base.table2) {
			t.Errorf("workers=%d: Table 2 differs:\n%v\nvs\n%v", workers, got.table2, base.table2)
		}
	}
}

// TestIncrementalStudyRendersWhileNextSnapshots: a node's study of
// snapshot k renders — every section, its round-1 set marshalled for a
// coordinator — while snapshots k+1 and k+2 copy the verdicts and
// extend the fold of clean records that study k reads. Under -race
// (make race-parallel) nothing may race, and study k's report must be
// the batch report over its own records, unmoved by what came after.
func TestIncrementalStudyRendersWhileNextSnapshots(t *testing.T) {
	w, records := bounce.GenerateParallel(world.TinyConfig(), 2)
	env := bounce.NewEnvironment(w)
	n := len(records) / 2
	inc := analysis.NewIncremental(analysis.DefaultPipelineConfig())
	inc.AddBatch(records[:n])
	a := inc.Snapshot(env)
	st := &bounce.Study{Records: a.Records, Analysis: a}

	var want bytes.Buffer
	ref := bounce.Reference(dataset.NewSliceSource(records[:n]), env)
	if err := ref.WriteReport(&want, bounce.AllSections); err != nil {
		t.Fatal(err)
	}
	wantPartial := ref.BouncedPartials().Marshal()

	got := make([][]byte, 3)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := st.WriteReport(&buf, bounce.AllSections); err != nil {
				t.Error(err)
			}
			got[i] = buf.Bytes()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !bytes.Equal(a.BouncedPartials().Marshal(), wantPartial) {
			t.Error("the round-1 set of snapshot k differs from the batch one")
		}
	}()
	step := (len(records) - n) / 2
	for _, end := range []int{n + step, len(records)} {
		inc.AddBatch(records[n:end])
		n = end
		inc.Snapshot(env)
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want.Bytes()) {
			t.Errorf("report %d of snapshot k differs from the batch report over its records (%d vs %d bytes)", i, len(b), want.Len())
		}
	}
}
