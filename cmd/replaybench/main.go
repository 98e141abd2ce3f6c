// Command replaybench measures crash-recovery cost: how long a bounced
// restart takes to rebuild its analysis state from a checkpoint plus a
// WAL tail, versus a cold replay of the entire log. The setup mirrors
// production — records flow through a durable server, a checkpoint is
// taken at ~90% of the stream, and the process is then torn down the
// crash-shaped way (no final checkpoint) — so the timed recovery is
// exactly what the next boot would do. Both recovery paths are
// asserted state-identical before any timing is reported.
//
// Usage:
//
//	replaybench                       # 100k emails, append to BENCH_bounced.json
//	replaybench -emails 1000000 -out -  # the 1M row, print to stdout
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/bounced"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/world"
)

type result struct {
	Bench             string  `json:"bench"`
	Timestamp         string  `json:"timestamp"`
	Records           int     `json:"records"`
	CheckpointRecords uint64  `json:"checkpoint_records"`
	TailRecords       int     `json:"tail_records"`
	WALBytes          int64   `json:"wal_bytes"`
	IngestMs          float64 `json:"ingest_ms"`
	CheckpointMs      float64 `json:"checkpoint_ms"`
	RecoverMs         float64 `json:"recover_ms"`
	ColdReplayMs      float64 `json:"cold_replay_ms"`
	RecoverVsCold     float64 `json:"recover_vs_cold_ratio"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("replaybench: ")
	var (
		emails = flag.Int("emails", 100_000, "corpus size to generate in memory")
		seed   = flag.Uint64("seed", 42, "world seed")
		out    = flag.String("out", "BENCH_bounced.json", "append the result line here ('-' for stdout)")
	)
	flag.Parse()

	cfg := world.DefaultConfig()
	cfg.TotalEmails = *emails
	cfg.Seed = *seed
	_, records := bounce.Generate(cfg)
	// Round-trip the corpus through the NDJSON codec once, the way any
	// real ingest arrives: the states being diffed must not depend on
	// whether a record came from memory or from a WAL replay.
	var dec dataset.Decoder
	for i := range records {
		b, err := records[i].MarshalJSON()
		if err != nil {
			log.Fatal(err)
		}
		records[i] = dataset.Record{}
		if err := dec.Decode(b, &records[i]); err != nil {
			log.Fatal(err)
		}
	}
	res := result{
		Bench:     "replay",
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Records:   len(records),
	}

	dir, err := os.MkdirTemp("", "replaybench-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One giant segment: checkpoint pruning never removes history, so
	// the cold-replay baseline can still scan the log from record zero.
	open := func(readOnly bool) *store.FS {
		eng, err := store.Open(store.FSOptions{Dir: dir, SegmentBytes: 1 << 40, ReadOnly: readOnly})
		if err != nil {
			log.Fatal(err)
		}
		return eng
	}

	srv, err := bounced.New(bounced.Config{Store: open(false), QueueDepth: 4096})
	if err != nil {
		log.Fatal(err)
	}
	cut := len(records) * 9 / 10
	start := time.Now()
	feed := func(part []dataset.Record) {
		for i := range part {
			if _, err := srv.IngestBatch(part[i : i+1]); err != nil {
				log.Fatal(err)
			}
		}
		for srv.Consumed() < srv.Accepted() {
			time.Sleep(time.Millisecond)
		}
	}
	feed(records[:cut])
	ingestHead := time.Since(start)
	cpStart := time.Now()
	if err := srv.CheckpointNow(); err != nil {
		log.Fatal(err)
	}
	res.CheckpointMs = ms(time.Since(cpStart))
	start = time.Now()
	feed(records[cut:])
	res.IngestMs = ms(ingestHead + time.Since(start))
	res.CheckpointRecords = uint64(cut)
	res.TailRecords = len(records) - cut
	srv.Abort() // crash-shaped teardown: no final checkpoint

	// Timed path 1: what the next boot does — newest checkpoint, then
	// the ~10% WAL tail. The clock stops at a serviceable state, i.e.
	// with the pipeline builders trained to the full record count:
	// CaptureState is the catch-up (the checkpoint's builders arrive
	// pre-trained, so only the tail needs mining).
	start = time.Now()
	recInc, info, err := bounced.RecoverIncremental(dir, analysis.DefaultPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	recState := recInc.CaptureState()
	res.RecoverMs = ms(time.Since(start))
	if recInc.Len() != len(records) || info.Replayed != res.TailRecords {
		log.Fatalf("recovery holds %d records (%d replayed), want %d (%d)",
			recInc.Len(), info.Replayed, len(records), res.TailRecords)
	}

	// Timed path 2: the cold baseline — ignore the checkpoint, rebuild
	// the accumulator by replaying the whole log, then train from zero
	// to reach the same serviceable state.
	eng := open(true)
	coldInc := analysis.NewIncremental(analysis.DefaultPipelineConfig())
	start = time.Now()
	coldInfo, err := eng.Tail(0, func(_ uint64, rec *dataset.Record) error {
		coldInc.Add(rec)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	coldState := coldInc.CaptureState()
	res.ColdReplayMs = ms(time.Since(start))
	st := eng.Stats()
	res.WALBytes = st.WALBytes
	eng.Close()
	if coldInfo.Replayed != len(records) {
		log.Fatalf("cold replay saw %d records, want %d", coldInfo.Replayed, len(records))
	}

	// Both paths must land on the same state before the numbers mean
	// anything: the serialized captures are compared byte for byte.
	recBlob, err := recState.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	coldBlob, err := coldState.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(recBlob, coldBlob) {
		log.Fatal("checkpoint recovery and cold replay produced different states")
	}
	if res.ColdReplayMs > 0 {
		res.RecoverVsCold = res.RecoverMs / res.ColdReplayMs
	}
	log.Printf("%d records: recover %.1fms (checkpoint %d + tail %d) vs cold replay %.1fms (%.3fx)",
		res.Records, res.RecoverMs, res.CheckpointRecords, res.TailRecords, res.ColdReplayMs, res.RecoverVsCold)
	if res.RecoverMs >= res.ColdReplayMs {
		log.Fatal("recovery from checkpoint is not faster than cold replay")
	}

	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	line = append(line, '\n')
	if *out == "-" {
		os.Stdout.Write(line)
		return
	}
	f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(line); err != nil {
		log.Fatal(err)
	}
	log.Printf("-> %s", *out)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
