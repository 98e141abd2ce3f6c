package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// history is the untraced rows of one -out file: per workload and
// end-to-end metric, the values of every run in the file.
type history struct {
	nproc  int
	values map[string]map[string]sample
}

func readHistory(path string) (*history, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := &history{values: map[string]map[string]sample{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for n := 1; sc.Scan(); n++ {
		var row struct {
			Machine machine `json:"machine"`
			result
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if row.Traced {
			continue
		}
		if h.nproc != 0 && h.nproc != row.Machine.NumCPU {
			return nil, fmt.Errorf("%s mixes rows from %d and %d CPUs", path, h.nproc, row.Machine.NumCPU)
		}
		h.nproc = row.Machine.NumCPU
		if h.values[row.Workload] == nil {
			h.values[row.Workload] = map[string]sample{}
		}
		for name, m := range row.Metrics {
			h.values[row.Workload][name] = append(h.values[row.Workload][name], m.Value)
		}
	}
	return h, sc.Err()
}

// worsening is by what share of a the value b is worse, given which
// direction is better; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, the ratio of
// file b's median to file a's against the manifest's bound, and reports
// whether every metric stayed inside its bound. Rows measured on
// different CPU counts are refused: they compare machines, not code.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readHistory(pathA)
	if err != nil {
		return false, err
	}
	b, err := readHistory(pathB)
	if err != nil {
		return false, err
	}
	if a.nproc != b.nproc {
		return false, fmt.Errorf("%s ran on %d CPUs and %s on %d: refusing to compare", pathA, a.nproc, pathB, b.nproc)
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %7s %6s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "worse", "bound")
	for _, wl := range man.Workloads {
		va, vb := a.values[wl.Name], b.values[wl.Name]
		if va == nil || vb == nil {
			continue
		}
		for _, md := range man.EndToEnd {
			if len(va[md.Name]) == 0 || len(vb[md.Name]) == 0 || md.Bound == nil {
				continue
			}
			ma, mb := va[md.Name].median(), vb[md.Name].median()
			worse := worsening(ma, mb, md.Better)
			verdict := "ok"
			if worse > *md.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %8.3f %+6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, md.Name, ma, mb, mb/ma, worse*100, *md.Bound*100, verdict, len(va[md.Name]), len(vb[md.Name]))
		}
	}
	return ok, nil
}
