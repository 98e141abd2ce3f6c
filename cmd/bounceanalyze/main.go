// Command bounceanalyze reproduces every table and figure of the paper
// over a simulated corpus: it generates (or loads) a dataset, runs the
// Drain+EBRC classification pipeline, and prints the requested report
// sections with the paper's published values alongside.
//
// Usage:
//
//	bounceanalyze                         # full report at default scale
//	bounceanalyze -emails 100000          # faster run
//	bounceanalyze -section table1,fig8    # specific sections
//	bounceanalyze -in dataset.jsonl -seed 42   # analyze a bouncegen file
//	bounceanalyze -in dataset.jsonl.gz    # gzip input, sniffed by magic bytes
//	bounceanalyze -workers 4              # parallel delivery, identical results
//	bounceanalyze -data-dir /var/lib/bounced   # analyze a bounced durability dir offline
//
// When -in is given, the world is regenerated from -seed (deterministic)
// to supply the external services — geolocation, blocklist state, leak
// corpus, registries — that the paper also consulted out-of-band.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bounceanalyze: ")
	var (
		emails  = flag.Int("emails", 400_000, "corpus size when generating")
		seed    = flag.Uint64("seed", 42, "world seed")
		in      = flag.String("in", "", "analyze an existing JSONL dataset instead of generating")
		section = flag.String("section", "all", "comma-separated sections or 'all'")
		asJSON  = flag.Bool("json", false, "emit a machine-readable summary instead of the report")
		workers = flag.Int("workers", 1, "delivery fan-out width (results are identical for any value)")
		shards  = flag.Int("shards", 0, "with -in: partition the file into N shard analyses and merge their partial aggregates (report bytes identical to -shards 0)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile here")
		memProf = flag.String("memprofile", "", "write a heap profile on exit here")
		faults  = flag.String("fault-spec", "", "with -in: replay the file through a deterministic fault-injection wrapper (DESIGN.md §9)")
		dataDir = flag.String("data-dir", "", "analyze a bounced durability directory (newest checkpoint + WAL tail, opened read-only)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// Ctrl-C stops delivery at the next day boundary (or file streaming
	// at the next record) instead of hanging to the end of the workload.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := world.DefaultConfig()
	cfg.TotalEmails = *emails
	cfg.Seed = *seed

	if *shards > 1 && *in == "" {
		log.Fatal("-shards requires -in (sharding partitions an existing dataset file)")
	}
	if *shards > 1 && *asJSON {
		log.Fatal("-json is unavailable with -shards (the summary needs the full corpus)")
	}
	if *dataDir != "" && (*in != "" || *shards > 1 || *faults != "") {
		log.Fatal("-data-dir replaces -in (and is incompatible with -shards and -fault-spec)")
	}

	var study *bounce.Study
	if *in == "" && *dataDir == "" {
		var err error
		study, err = bounce.RunCtx(ctx, bounce.Options{Config: cfg, Workers: *workers})
		if err != nil && !errors.Is(err, context.Canceled) {
			log.Fatal(err)
		}
	} else if *dataDir != "" {
		// Offline analysis of a bounced data directory: the exact state a
		// restarted bounced would recover, without starting a server. The
		// store is opened read-only, so a live bounced on the same
		// directory is unaffected.
		inc, info, err := bounced.RecoverIncremental(*dataDir, analysis.DefaultPipelineConfig())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered %d records from %s (checkpoint at %d, %d replayed from the WAL tail)",
			inc.Len(), *dataDir, uint64(inc.Len())-uint64(info.Replayed), info.Replayed)
		e, err := bounce.ReplayEnvironment(ctx, cfg, *workers)
		if err != nil {
			log.Fatal(err)
		}
		a := inc.Snapshot(bounce.NewEnvironment(e.W))
		study = &bounce.Study{World: e.W, Records: a.Records, Analysis: a}
	} else {
		// Transparently decodes .jsonl.gz; NDJSON decode fans out across
		// GOMAXPROCS workers with an input-order merge.
		f, err := openDataset(*in, *faults)
		if err != nil {
			log.Fatal(err)
		}
		e, err := bounce.ReplayEnvironment(ctx, cfg, *workers)
		if err != nil {
			log.Fatal(err)
		}
		w := e.W
		src := dataset.NewContextSource(ctx, f)
		env := bounce.NewEnvironment(w)
		if *shards > 1 {
			// Sharded batch mode: partition by substream ownership, analyze
			// each shard independently, gather the two rounds through the
			// wire codecs, merge, and render — the offline twin of the
			// shard/coordinator topology. Bytes match the unsharded run.
			runSharded(src, f, env, *shards, *section)
			return
		}
		// Stream the file through the pipeline in a single pass.
		a := analysis.NewFromSource(src, analysis.DefaultPipelineConfig(), env)
		f.Close()
		if err := src.Err(); err != nil {
			log.Fatal(err)
		}
		study = &bounce.Study{World: w, Records: a.Records, Analysis: a}
	}

	if *asJSON {
		if err := study.Summary().WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if err := study.WriteReport(os.Stdout, bounce.ParseSections(*section, bounce.AllSections)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runSharded is the offline twin of the shard/coordinator topology
// (satellite of DESIGN.md §10): records are partitioned by substream
// ownership exactly as a cluster router would, each shard is analyzed
// independently, and the shard partials are gathered in the two rounds
// a coordinator runs — every set and the scope round-tripped through
// the wire codecs a shard node serves on /v1/partial — and merged in
// shard order. The merged report bytes equal the unsharded run's for
// every partial-renderable section.
func runSharded(src *dataset.ContextSource, f recordSource, env *analysis.Environment, shards int, section string) {
	parts := make([][]dataset.Record, shards)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		// The reader reuses its record buffers — copy the struct out.
		c := *rec
		own := analysis.OwnerOf(&c, shards)
		parts[own] = append(parts[own], c)
	}
	f.Close()
	if err := src.Err(); err != nil {
		log.Fatal(err)
	}

	analyses := make([]*analysis.Analysis, shards)
	for i, recs := range parts {
		analyses[i] = analysis.New(recs, env)
	}
	merged, err := analysis.GatherPartials(analyses, env)
	if err != nil {
		log.Fatal(err)
	}

	if section == "all" {
		log.Print("note: squat and advice need the full corpus; run without -shards to include them")
	}
	if err := bounce.NewPartialStudy(merged).WriteReport(os.Stdout, bounce.ParseSections(section, bounce.PartialSections)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// recordSource is what the -in path needs: streamed records plus a
// terminal error and a Close.
type recordSource interface {
	dataset.RecordSource
	Close() error
}

// openDataset opens the record file, optionally routed through the
// deterministic fault-injection wrapper — the offline twin of the
// bounced ingest path, for reproducing a hostile-stream failure as a
// batch run (same seed, same fault schedule, same line-numbered error).
func openDataset(path, faultSpec string) (recordSource, error) {
	if faultSpec == "" {
		return dataset.OpenParallel(path, 0)
	}
	sp, err := faultinject.ParseSpec(faultSpec)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	plan := faultinject.New(sp).NextPlan()
	rd, err := dataset.NewDecodingReader(plan.WrapRaw(f))
	if err != nil {
		f.Close()
		return nil, err
	}
	log.Printf("fault injection armed: %s", sp)
	return &faultSource{ParallelReader: dataset.NewParallelReader(plan.WrapDecoded(rd), 0), f: f}, nil
}

type faultSource struct {
	*dataset.ParallelReader
	f *os.File
}

func (s *faultSource) Close() error {
	s.ParallelReader.Close()
	return s.f.Close()
}
