package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/delivery"
	"repro/internal/world"
)

// lines is a run of NDJSON records in one buffer: record i occupies
// buf[off[i]:off[i+1]], newline included.
type lines struct {
	buf []byte
	off []int
}

func (l *lines) n() int                  { return len(l.off) - 1 }
func (l *lines) slice(lo, hi int) []byte { return l.buf[l.off[lo]:l.off[hi]] }

func (l *lines) append(line []byte) {
	if len(l.off) == 0 {
		l.off = append(l.off, 0)
	}
	l.buf = append(l.buf, line...)
	l.off = append(l.off, len(l.buf))
}

// corpus is the one input every workload draws from: the delivery
// records of a seeded world, as the bytes a client would send and as the
// records the server decodes from those bytes.
type corpus struct {
	seed   uint64
	emails int
	all    lines
	recs   []dataset.Record // decoded back from all, so the reference sees what the SUT sees
	genS   float64          // GenerateParallel
	codecS float64          // encode to NDJSON and decode back
}

// newCorpus generates the corpus in-process; it is never cached across
// invocations, so setup_s is the same whether a workload runs alone or
// after another.
//
// The world — receiver domains and their policies, senders, attackers,
// the planned submissions — is always the default one the repository's
// experiments are calibrated on (world seed 42). seed reseeds the
// delivery engine that plays the submissions out: which attempts fail,
// which NDR wording a receiver draws, how retries fall. Seed 42 is
// therefore exactly bounce.GenerateParallel's corpus, and any other
// seed is another sample of the same traffic: different bytes, the same
// statistics. Reseeding the world instead moves what a report costs by
// ±15% and what generation costs by ±20% from seed to seed (Detect and
// the policy chain are sensitive to which few domains are large), which
// would drown every bound this benchmark sets; see README.md.
func newCorpus(seed uint64, emails int) (*corpus, error) {
	cfg := world.DefaultConfig()
	cfg.TotalEmails = emails
	t0 := time.Now()
	w := world.New(cfg)
	w.Cfg.Seed = seed // read by delivery.New and the policy chain from here on
	var recs []dataset.Record
	delivery.New(w).ParallelRun(runtime.NumCPU(), func(rec dataset.Record, _ *world.Submission, _ delivery.Truth) {
		recs = append(recs, rec)
	})
	c := &corpus{seed: seed, emails: emails, genS: time.Since(t0).Seconds()}

	t0 = time.Now()
	c.all.buf = make([]byte, 0, len(recs)*340)
	c.all.off = make([]int, 0, len(recs)+1)
	for i := range recs {
		b, err := recs[i].MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("encode record %d: %w", i, err)
		}
		c.all.append(append(b, '\n'))
	}
	c.recs = make([]dataset.Record, len(recs))
	var dec dataset.Decoder
	for i := range c.recs {
		line := c.all.slice(i, i+1)
		if err := dec.Decode(line[:len(line)-1], &c.recs[i]); err != nil {
			return nil, fmt.Errorf("decode record %d: %w", i, err)
		}
	}
	c.codecS = time.Since(t0).Seconds()
	return c, nil
}

// reference renders the report a correct server must serve once it has
// consumed every corpus record in order: the batch path, in-process.
// partial selects the coordinator's rendering (merged partial
// aggregates, no squat/advice sections).
func (c *corpus) reference(partial bool) ([]byte, error) {
	a := bounce.Analyze(c.recs, nil)
	st := &bounce.Study{Records: a.Records, Analysis: a}
	var buf bytes.Buffer
	if partial {
		err := bounce.NewPartialStudy(st.Partials()).WriteReport(&buf, bounce.PartialSections)
		return buf.Bytes(), err
	}
	st.Detections = a.Detect()
	err := st.WriteReport(&buf, bounce.AllSections)
	return buf.Bytes(), err
}

// partition splits records [lo,hi) of the corpus by owning shard,
// keeping corpus order inside each shard.
func (c *corpus) partition(lo, hi, shards int) []lines {
	out := make([]lines, shards)
	for i := lo; i < hi; i++ {
		own := analysis.OwnerOf(&c.recs[i], shards)
		out[own].append(c.all.slice(i, i+1))
	}
	return out
}

// body is one pre-encoded POST /v1/records request body.
type body struct {
	id       string // X-Batch-Id ("" = streamed path)
	records  int
	rawBytes int // uncompressed NDJSON bytes
	data     []byte
	gz       bool
}

// makeBodies cuts records [lo,hi) of l into bodies of per records each,
// all encoded before any timed window. Identity bodies alias l's
// buffer; gzip bodies are compressed at BestSpeed, the level a client
// trading CPU for bandwidth on a LAN would pick (inflate cost on the
// server barely depends on it).
func makeBodies(l *lines, lo, hi, per int, gz bool, idPrefix string) ([]body, error) {
	var out []body
	var zbuf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&zbuf, gzip.BestSpeed) // level is a valid constant
	for i := lo; i < hi; i += per {
		j := min(i+per, hi)
		raw := l.slice(i, j)
		b := body{records: j - i, rawBytes: len(raw), data: raw, gz: gz}
		if idPrefix != "" {
			b.id = fmt.Sprintf("%s-%06d", idPrefix, len(out))
		}
		if gz {
			zbuf.Reset()
			zw.Reset(&zbuf)
			if _, err := zw.Write(raw); err != nil {
				return nil, err
			}
			if err := zw.Close(); err != nil {
				return nil, err
			}
			b.data = append([]byte(nil), zbuf.Bytes()...)
		}
		out = append(out, b)
	}
	return out, nil
}
