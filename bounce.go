// Package bounce is the public API of the "Bounce in the Wild"
// reproduction (IMC 2024): it wires the world generator, the delivery
// engine, the Drain+EBRC classification pipeline, the analysis layer
// and the squatting scanner into a one-call study.
//
// The typical flow:
//
//	study := bounce.Run(bounce.Options{Scale: bounce.ScaleSmall})
//	study.WriteReport(os.Stdout, bounce.AllSections)
//
// or piecewise:
//
//	w, records := bounce.Generate(world.DefaultConfig())
//	a := bounce.Analyze(records, bounce.NewEnvironment(w))
//
// Everything is deterministic in the configured seed.
package bounce

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/delivery"
	"repro/internal/geo"
	"repro/internal/squat"
	"repro/internal/world"
)

// Scale selects a preset world size.
type Scale int

// Preset scales.
const (
	// ScaleDefault is the calibrated ~400K-email corpus used for the
	// headline reproduction.
	ScaleDefault Scale = iota
	// ScaleSmall is a ~100K-email corpus for faster interactive runs.
	ScaleSmall
	// ScaleTiny is a few thousand emails for tests and examples.
	ScaleTiny
)

// Options configures a study run.
type Options struct {
	// Scale picks a preset; Config (if non-zero TotalEmails) overrides
	// it entirely.
	Scale  Scale
	Config world.Config
	// Pipeline overrides the classification pipeline parameters.
	Pipeline analysis.PipelineConfig
	// PinProxy enables the greylist-friendly proxy-pinning ablation.
	PinProxy bool
	// MaxAttempts overrides Coremail's retry budget (default 5).
	MaxAttempts int
	// Workers is the delivery fan-out width (default 1). The dataset is
	// byte-identical for any value: delivery state is sharded by
	// receiver domain and records merge back in submission order.
	Workers int
}

// ConfigForScale returns the world config for a preset scale.
func ConfigForScale(s Scale) world.Config {
	switch s {
	case ScaleSmall:
		cfg := world.DefaultConfig()
		cfg.TotalEmails = 100_000
		return cfg
	case ScaleTiny:
		return world.TinyConfig()
	default:
		return world.DefaultConfig()
	}
}

// Study is a completed simulation + analysis. Handle it by pointer: it
// carries the sync.Onces that guard Detections, Figure 7, the squat
// scan and its two partial sets. A zero value with Records and Analysis
// set is ready to report.
type Study struct {
	World      *world.World
	Engine     *delivery.Engine
	Records    dataset.Records
	Truths     []delivery.Truth
	Analysis   *analysis.Analysis
	Detections *analysis.Detections // assignable; left nil, computed on first use

	detOnce      sync.Once
	durOnce      sync.Once
	dur          analysis.DurationsFigure
	partialsOnce sync.Once
	partials     *analysis.PartialSet
	bouncedOnce  sync.Once
	bounced      *analysis.PartialSet
	squatOnce    sync.Once
	squat        *squat.Result
}

// detections resolves the entity detections the first time a section
// needs them (table2, fig7, attackers, typos, squat, advice, Summary;
// overview, fig5 and a partial aggregate never do). Safe for concurrent
// report requests over one cached Study.
func (s *Study) detections() *analysis.Detections {
	s.detOnce.Do(func() {
		if s.Detections == nil {
			s.Detections = s.Analysis.Detect()
		}
	})
	return s.Detections
}

// durations infers Figure 7 the first time fig7, advice or Summary
// needs it: one episode pass per study, however many sections and
// report requests read it.
func (s *Study) durations() analysis.DurationsFigure {
	s.durOnce.Do(func() { s.dur = s.Analysis.Durations(s.detections()) })
	return s.dur
}

// Generate builds a world and delivers its full 15-month workload,
// returning the Figure-3 records.
func Generate(cfg world.Config) (*world.World, []dataset.Record) {
	return GenerateParallel(cfg, 1)
}

// GenerateParallel is Generate with a delivery fan-out width; the
// records are byte-identical for any worker count.
func GenerateParallel(cfg world.Config, workers int) (*world.World, []dataset.Record) {
	w := world.New(cfg)
	e := delivery.New(w)
	var records []dataset.Record
	e.ParallelRun(workers, func(rec dataset.Record, _ *world.Submission, _ delivery.Truth) {
		records = append(records, rec)
	})
	return w, records
}

// NewEnvironment exposes a world's external services (geo, blocklist,
// leak corpus, DNS, registries) to the analysis layer — the services
// the paper consulted beside its passive dataset.
func NewEnvironment(w *world.World) *analysis.Environment {
	env := &analysis.Environment{
		Geo:         w.Geo,
		Blocklist:   w.Blocklist,
		Breach:      w.Breach,
		Resolver:    w.Resolver,
		Registry:    w.Registry,
		UserRegs:    w.UserRegs,
		ProxyRegion: make(map[string]string, len(w.Proxies)),
	}
	for _, p := range w.Proxies {
		env.ProxyIPs = append(env.ProxyIPs, p.IP)
		env.ProxyRegion[p.IP] = p.Region
	}
	return env
}

// ReplayEnvironment regenerates the world from cfg and replays its
// delivery, discarding the records, to restore the stateful external
// services — blocklist listings accrue during delivery — that a report
// over records produced elsewhere consults: bounceanalyze -in and
// -data-dir, and bounced in ingest mode. The engine returned carries
// the world (NewEnvironment(e.W)) and the policy-chain counters.
func ReplayEnvironment(ctx context.Context, cfg world.Config, workers int) (*delivery.Engine, error) {
	e := delivery.New(world.New(cfg))
	if err := e.ParallelRunCtx(ctx, workers, func(dataset.Record, *world.Submission, delivery.Truth) {}); err != nil {
		return nil, err
	}
	return e, nil
}

// Analyze classifies records with the default pipeline configuration.
func Analyze(records []dataset.Record, env *analysis.Environment) *analysis.Analysis {
	return analysis.New(records, env)
}

// Run executes a full study: generate, deliver, classify, detect.
func Run(opts Options) *Study {
	s, _ := RunCtx(context.Background(), opts)
	return s
}

// RunCtx is Run with cancellation: Ctrl-C (or any ctx cancellation)
// stops delivery at the next day-batch boundary instead of finishing
// the 15-month workload. The returned study covers the records
// delivered before the stop (identical to the same-length prefix of an
// uncancelled run); the error is ctx's when cancelled, nil otherwise.
func RunCtx(ctx context.Context, opts Options) (*Study, error) {
	cfg := opts.Config
	if cfg.TotalEmails == 0 {
		cfg = ConfigForScale(opts.Scale)
	}
	w := world.New(cfg)
	e := delivery.New(w)
	if opts.PinProxy {
		e.PinProxy = true
	}
	if opts.MaxAttempts > 0 {
		e.MaxAttempts = opts.MaxAttempts
	}
	s := &Study{World: w, Engine: e}
	pcfg := opts.Pipeline
	if pcfg.TopTemplates == 0 {
		pcfg = analysis.DefaultPipelineConfig()
	}
	// Delivery and pipeline training run concurrently: the engine
	// streams records through a bounded pipe (backpressured to analysis
	// speed) and the analysis trains Drain as they arrive, in the
	// deterministic merged submission order. On cancellation the engine
	// stops between days and closes the pipe; the analysis then drains
	// what was delivered and returns a partial study.
	pipe := dataset.NewPipe(256)
	errc := make(chan error, 1)
	go func() {
		errc <- e.ParallelRunCtx(ctx, opts.Workers, func(rec dataset.Record, _ *world.Submission, truth delivery.Truth) {
			s.Truths = append(s.Truths, truth)
			pipe.Write(&rec)
		})
		pipe.Close()
	}()
	s.Analysis = analysis.NewFromSource(pipe, pcfg, NewEnvironment(w))
	s.Records = s.Analysis.Records
	s.Detections = s.Analysis.Detect()
	return s, <-errc
}

// squatScan is squat.Scan; a test counts the scans through it.
var squatScan = squat.Scan

// Squat runs the Section-5 squatting scan over the study. The scan with
// the default configuration — what the squat and advice sections and
// Summary read — runs once per study, like Detections, and is safe for
// concurrent callers; another configuration scans on every call.
func (s *Study) Squat(cfg squat.Config) *squat.Result {
	if cfg != squat.DefaultConfig() {
		return squatScan(s.Analysis, s.detections(), cfg)
	}
	s.squatOnce.Do(func() { s.squat = squatScan(s.Analysis, s.detections(), cfg) })
	return s.squat
}

// ProxyRegions re-exports the fleet layout for callers that do not
// want to import internal packages.
func ProxyRegions() []geo.ProxyRegion { return geo.ProxyRegions }

// Section identifies one reproducible table or figure.
type Section string

// Report sections.
const (
	SecOverview Section = "overview"
	SecPipeline Section = "pipeline"
	SecTable1   Section = "table1"
	SecTable2   Section = "table2"
	SecTable3   Section = "table3"
	SecTable4   Section = "table4"
	SecTable5   Section = "table5"
	SecTable6   Section = "table6"
	SecFig4     Section = "fig4"
	SecFig5     Section = "fig5"
	SecFig6     Section = "fig6"
	SecFig7     Section = "fig7"
	SecFig8     Section = "fig8"
	SecFig10    Section = "fig10"
	SecSTARTTLS Section = "starttls"
	SecAttacker Section = "attackers"
	SecTypos    Section = "typos"
	SecSquat    Section = "squat"
	SecFilters  Section = "filters"
	SecAdvice   Section = "advice"
)

// AllSections lists every report section in presentation order.
var AllSections = []Section{
	SecOverview, SecPipeline, SecTable1, SecTable2, SecTable3, SecTable4,
	SecTable5, SecTable6, SecFig4, SecFig5, SecFig6, SecFig7, SecFig8,
	SecFig10, SecSTARTTLS, SecAttacker, SecFilters, SecTypos, SecSquat,
	SecAdvice,
}

// ParseSections reads a comma-separated section list — the grammar of
// bounceanalyze -section, bounced -flush-sections and ?section= on a
// node or a coordinator. Empty and "all" select all; blanks around an
// entry and empty entries are dropped. Names are not checked here:
// CheckSections does, and WriteReport rejects an unknown one.
func ParseSections(arg string, all []Section) []Section {
	if arg == "" || arg == "all" {
		return all
	}
	var out []Section
	for _, name := range strings.Split(arg, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, Section(name))
		}
	}
	return out
}

// WriteReport renders the requested sections to w.
func (s *Study) WriteReport(w io.Writer, sections []Section) error {
	for _, sec := range sections {
		if err := s.writeSection(w, sec); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
