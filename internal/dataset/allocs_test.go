package dataset_test

import (
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/world"
)

// TestDecoderAllocsPerRecord is the arena decoder's budget: decoding a
// real corpus head through a warmed Decoder costs at most one heap
// allocation per record (interning and scratch reuse put the measured
// figure near zero; encoding/json spends about three per record).
func TestDecoderAllocsPerRecord(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.TotalEmails = 3000
	cfg.Seed = 5
	_, recs := bounce.GenerateParallel(cfg, 1)
	if len(recs) > 2000 {
		recs = recs[:2000]
	}
	lines := make([][]byte, len(recs))
	for i := range recs {
		b, err := recs[i].MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	var dec dataset.Decoder
	var rec dataset.Record
	pass := func() {
		for _, l := range lines {
			if err := dec.Decode(l, &rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm the decoder's scratch buffers and intern table
	const budget = 1.0
	got := testing.AllocsPerRun(5, pass) / float64(len(lines))
	t.Logf("%.4f allocations per record over %d records", got, len(lines))
	if got > budget {
		t.Fatalf("decode costs %.3f heap allocations per record over %d records, budget %.1f", got, len(lines), budget)
	}
}
