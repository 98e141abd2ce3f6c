package bounce_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro"
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
