// Command bench is the repository's benchmark for bounced: four
// topologies measured end to end through real processes on loopback,
// and every layer measured by name through its package's public API.
// BENCHMARK.json at the repository root is its manifest; README.md in
// this directory is the catalogue of workloads and metrics.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload single-stream --seed 42 --seconds 10 --trace 0
//	go run ./bench                          # every workload, untraced then traced
//	go run ./bench -workload durable-batch -trace 1 -out runs.jsonl
//	go run ./bench -compare a.jsonl b.jsonl
//
// The last line of standard output of a one-workload, one-mode run is
// the result object the manifest's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the bounced binary,
// the Go build cache run.sh points there, data directories and span
// dumps. It is listed in .gitignore.
const buildDir = ".bench_build"

type options struct {
	scratch   string // where binaries, data dirs and span dumps go
	workloads []string
	seed      uint64
	seconds   int
	emails    int
	trace     string // "0", "1", or "" for both
	out       string
	spans     string
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	o := options{scratch: buildDir}
	var wl stringList
	var compare bool
	flag.Var(&wl, "workload", "workload to run (repeatable; default all four)")
	flag.Uint64Var(&o.seed, "seed", 42, "corpus seed: the same seed gives the same request bytes")
	flag.IntVar(&o.seconds, "seconds", 8, "how long each workload's timed reps go on")
	flag.IntVar(&o.emails, "records", 80_000, "emails in the generated corpus; scales every workload's record counts together")
	flag.StringVar(&o.trace, "trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics (stage harness, then the workload with spans on); default both")
	flag.StringVar(&o.out, "out", "", "append each result, with the machine it ran on, to this JSON-lines file")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the spans as JSON lines here (default "+buildDir+"/spans-<workload>.jsonl)")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	flag.Parse()
	o.workloads = wl

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if err := benchMain(o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// benchMain runs the chosen workloads in the chosen modes. Children and
// scratch directories are gone when it returns, whether it returns
// normally, with an error, by panic or because of SIGINT/SIGTERM.
func benchMain(o options) error {
	if len(o.workloads) == 0 {
		for _, w := range workloads {
			o.workloads = append(o.workloads, w.name)
		}
	}
	for _, name := range o.workloads {
		if findWorkload(name) == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	var modes []bool
	switch o.trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace takes 0 or 1, not %q", o.trace)
	}
	if o.seconds < 1 || o.emails < 1 {
		return errors.New("-seconds and -records must be positive")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	t0 := time.Now()
	bin, err := buildBounced(ctx, ".", o.scratch)
	if err != nil {
		return err
	}
	buildS := time.Since(t0).Seconds()
	mach := machineInfo(o.scratch)

	for _, name := range o.workloads {
		for _, traced := range modes {
			res, err := execute(ctx, o, findWorkload(name), traced, bin, buildS)
			if err != nil {
				if ctx.Err() != nil {
					return errors.New("interrupted")
				}
				return fmt.Errorf("%s: %w", name, err)
			}
			res.print(os.Stdout, mach)
			if o.out != "" {
				if err := res.appendTo(o.out, mach); err != nil {
					return err
				}
			}
			// Last, so that a one-workload, one-mode run ends on its result.
			line, err := json.Marshal(res.contract())
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", line)
		}
	}
	return nil
}

// buildBounced compiles cmd/bounced from the working tree at root: the
// benchmark measures this checkout's code, never a binary found
// elsewhere.
func buildBounced(ctx context.Context, root, scratch string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "bounced", "main.go")); err != nil {
		return "", errors.New("run from the repository root: ./cmd/bounced is not here")
	}
	bin, err := filepath.Abs(filepath.Join(scratch, "bin", "bounced"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bounced")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bounced: %w", err)
	}
	return bin, nil
}

// execute runs one workload in one mode: set-up (corpus, reference,
// bodies — never cached, so setup_s reads the same alone or after
// another workload), in a traced run the stage harness, then the
// workload itself.
func execute(ctx context.Context, o options, wl *workloadDef, traced bool, bin string, buildS float64) (res *result, err error) {
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	r := &run{
		ctx: ctx, bin: bin, dir: dir,
		budget: time.Duration(o.seconds) * time.Second,
		lg:     &loadgen{},
		ps:     &procSet{bin: bin, onEarlyExit: func(err error) { cancel(err) }},
		m:      map[string]float64{"loadgen.build_s": buildS},
	}
	defer r.ps.killAll()

	if r.c, err = newCorpus(o.seed, o.emails); err != nil {
		return nil, err
	}
	if traced {
		r.tr = newTracer()
		if err := r.stageHarness(); err != nil {
			return nil, fmt.Errorf("stage harness: %w", err)
		}
	}
	if err := wl.run(r); err != nil {
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			return nil, cause
		}
		return nil, err
	}
	res = r.result(wl.name, traced, o)
	if traced {
		path := o.spans
		if path == "" {
			path = filepath.Join(o.scratch, "spans-"+wl.name+".jsonl")
		}
		if err := r.tr.writeSpans(path); err != nil {
			return nil, err
		}
		res.Spans = summarize(r.tr.spans)
	}
	return res, nil
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run in one mode.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      uint64            `json:"seed"`
	Emails    int               `json:"emails"`
	Records   int               `json:"records"`
	Reps      int               `json:"reps"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"` // how many samples stand behind a metric
	Spans     []spanStat        `json:"spans,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

// result reduces what the run measured to named metrics. An untraced
// run yields every end-to-end metric (plus whichever per-layer ones it
// measured along the way, for the human-readable print); a traced run
// must yield every per-layer metric.
func (r *run) result(workload string, traced bool, o options) *result {
	res := &result{
		Workload: workload, Traced: traced, Seed: o.seed, Emails: o.emails, Records: r.c.all.n(),
		Reps: len(r.boot), Correct: true,
		Attempted: r.lg.attempted.Load(), Failed: r.lg.failed.Load(),
		Metrics: map[string]metric{}, Samples: map[string]int{},
	}
	e2e, layer := defsByName(endToEnd), defsByName(perLayer)
	set := func(name string, v float64, samples int) {
		def, ok := e2e[name]
		if !ok {
			if def, ok = layer[name]; !ok {
				panic("bench: metric " + name + " is not in the catalogue")
			}
		}
		res.Metrics[name] = metric{Value: v, Unit: def.unit}
		if samples > 0 {
			res.Samples[name] = samples
		}
	}

	rate := r.rate
	if len(rate) == 0 { // a single traced rep (report-mixed)
		rate = r.rateTraced
	}
	set("setup_s", r.setupFixed+r.c.genS+r.c.codecS+r.boot.median(), len(r.boot))
	set("ingest_records_per_s", rate.median(), len(rate))
	set("ack_ms_p50", r.acks.pct(50), len(r.acks))
	set("report_cold_ms", r.cold.median(), len(r.cold))
	set("report_delta_ms", r.delta.median(), len(r.delta))
	set("sut_cpu_s_per_100k", r.cpuS/float64(r.cpuRecords)*1e5, 0)
	// Peak memory is read at the end of the last rep, the one that also
	// served reports: a node's life includes both.
	set("sut_peak_rss_mb", r.peakRSS, 0)

	set("bounced.ack_ms_p95", r.acks.pct(95), len(r.acks))
	set("bounced.ack_ms_p99", r.acks.pct(99), len(r.acks))
	if traced {
		set("client.http_write_ms_p50", r.lg.httpWrite.median(), len(r.lg.httpWrite))
		set("client.http_wait_ms_p50", r.lg.httpWait.median(), len(r.lg.httpWait))
	}
	set("loadgen.cpu_s", r.lgCPU, 0)
	if len(r.rate) > 0 && len(r.rateTraced) > 0 {
		set("loadgen.trace_overhead_ratio", r.rateTraced.median()/r.rate.median(), len(r.rateTraced))
	}
	for _, role := range []string{"single", "primary", "standby", "router", "coordinator"} {
		set("proc.cpu_s."+role, r.roleCPU[role], 0)
		set("proc.rss_peak_mb."+role, r.roleRSS[role], 0)
	}
	for name, v := range r.m {
		set(name, v, 0)
	}
	// Every per-layer metric exists on every workload; the ones a
	// workload has no layer for (the WAL on a memory-only node) read 0.
	if traced {
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.name]; !ok {
				set(d.name, 0, 0)
			}
		}
	}

	if p := highestPercentile(len(r.acks)); p < 99 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d ack samples: the highest percentile with %d samples beyond it is p%g", len(r.acks), minBeyond, p))
	}
	if r.windowS > 0 && r.lgCPU > 0.8*r.windowS {
		res.Notes = append(res.Notes, fmt.Sprintf("the load generator burned %.1f CPU-s in %.1f s of timed windows: these numbers measure the generator as much as bounced", r.lgCPU, r.windowS))
	}
	return res
}

// contract is the object the manifest's contract wants as the last
// line: exactly the end-to-end metrics untraced, exactly the per-layer
// metrics traced.
func (res *result) contract() map[string]any {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		ms[d.name] = res.Metrics[d.name]
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms}
}

// print writes every measured metric by name with its unit.
func (res *result) print(w *os.File, mach machine) {
	fmt.Fprintf(w, "# %s  traced=%v  seed=%d  emails=%d  records=%d  reps=%d  operations=%d  failed=%d\n",
		res.Workload, res.Traced, res.Seed, res.Emails, res.Records, res.Reps, res.Attempted, res.Failed)
	fmt.Fprintf(w, "# %s\n", mach)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		order[d.name] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("%-42s %16.4f %s", n, m.Value, m.Unit)
		if c := res.Samples[n]; c > 0 {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	if len(res.Spans) > 0 {
		fmt.Fprintf(w, "# spans: %-26s %8s %14s %14s\n", "name", "count", "total ms", "self ms")
		for _, st := range res.Spans {
			fmt.Fprintf(w, "# spans: %-26s %8d %14.3f %14.3f\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
		}
	}
	for _, note := range res.Notes {
		fmt.Fprintln(w, "# note:", note)
	}
}

// appendTo adds the result and its machine to a JSON-lines history.
func (res *result) appendTo(path string, mach machine) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Machine machine `json:"machine"`
		*result
	}{mach, res})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// machine is what a number is meaningless without.
type machine struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	FSType     string `json:"fs_type"` // of the directory data dirs live under
}

func (m machine) String() string {
	return fmt.Sprintf("commit=%s %s nproc=%d GOMAXPROCS=%d kernel=%s fs=%s", m.Commit, m.Go, m.NumCPU, m.GOMAXPROCS, m.Kernel, m.FSType)
}

func machineInfo(dataDir string) machine {
	m := machine{Commit: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: "unknown", FSType: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			m.Commit += "+dirty"
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		m.FSType = fsName(int64(st.Type))
	}
	return m
}

// fsName names the filesystem magic numbers a sandbox is likely to sit
// on; anything else prints as hex.
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
