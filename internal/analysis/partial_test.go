package analysis

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ndr"
)

// sameResults reports whether two analyses answer every table and
// figure alike, the detections and Figure 7 among them: their whole
// partial sets encode to equal bytes.
func sameResults(a, b *Analysis) bool {
	return bytes.Equal(a.Partials().Marshal(), b.Partials().Marshal())
}

// partitionCorpus splits records by substream ownership — the same
// routing a cluster router, bounceanalyze -shards, and a shard node's
// admission check all use.
func partitionCorpus(records []dataset.Record, n int) [][]dataset.Record {
	parts := make([][]dataset.Record, n)
	for i := range records {
		own := OwnerOf(&records[i], n)
		parts[own] = append(parts[own], records[i])
	}
	return parts
}

// shardBlobs analyzes each partition independently and marshals its
// partial set — what a shard node serves on /v1/partial.
func shardBlobs(t *testing.T, parts [][]dataset.Record) [][]byte {
	t.Helper()
	blobs := make([][]byte, len(parts))
	for i, part := range parts {
		blobs[i] = New(part, nil).Partials().Marshal()
	}
	return blobs
}

func mergeBlobs(t *testing.T, blobs [][]byte, order []int) *PartialSet {
	t.Helper()
	var merged *PartialSet
	for _, i := range order {
		ps, err := UnmarshalPartialSet(blobs[i], nil)
		if err != nil {
			t.Fatalf("decode shard %d: %v", i, err)
		}
		if merged == nil {
			merged = ps
			continue
		}
		if err := merged.Merge(ps); err != nil {
			t.Fatalf("merge shard %d: %v", i, err)
		}
	}
	return merged
}

// TestPartialMarshalRoundTrip: decode(encode(x)) re-encodes to the
// same bytes, and the decoded set answers every result method the
// same way the original analysis does.
func TestPartialMarshalRoundTrip(t *testing.T) {
	records := testCorpus()
	a := New(records, nil)
	ps := a.Partials()
	b := ps.Marshal()
	rt, err := UnmarshalPartialSet(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Total != len(records) {
		t.Fatalf("round-tripped Total = %d, want %d", rt.Total, len(records))
	}
	b2 := rt.Marshal()
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-encode differs: %d vs %d bytes", len(b), len(b2))
	}
}

// TestPartialMergeShardIdentity is the core property: for every shard
// count and every (random) merge order, the merged partial set is
// byte-identical to the unsharded one. Byte equality of the canonical
// encoding implies every report derived from it is identical too.
func TestPartialMergeShardIdentity(t *testing.T) {
	records := testCorpus()
	want := New(records, nil).Partials().Marshal()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 16} {
		blobs := shardBlobs(t, partitionCorpus(records, n))
		for trial := 0; trial < 4; trial++ {
			order := rng.Perm(n)
			merged := mergeBlobs(t, blobs, order)
			if got := merged.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("shards=%d order=%v: merged set diverges from unsharded (%d vs %d bytes)",
					n, order, len(got), len(want))
			}
		}
	}
}

// TestPartialMergeAssociative: tree-shaped merges (pairs first, then
// pair results) equal the flat left-fold.
func TestPartialMergeAssociative(t *testing.T) {
	records := testCorpus()
	blobs := shardBlobs(t, partitionCorpus(records, 4))
	flat := mergeBlobs(t, blobs, []int{0, 1, 2, 3}).Marshal()

	left := mergeBlobs(t, blobs, []int{0, 1})
	right := mergeBlobs(t, blobs, []int{2, 3})
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	if got := left.Marshal(); !bytes.Equal(got, flat) {
		t.Fatalf("tree merge diverges from flat merge (%d vs %d bytes)", len(got), len(flat))
	}
}

// TestPartialMergeEmptyShardIdentity: merging a fresh (zero-record)
// partial set changes nothing — empty shards in a cluster are free.
func TestPartialMergeEmptyShardIdentity(t *testing.T) {
	records := testCorpus()
	ps := New(records, nil).Partials()
	want := ps.Marshal()
	if err := ps.Merge(NewPartialSet(nil)); err != nil {
		t.Fatal(err)
	}
	if got := ps.Marshal(); !bytes.Equal(got, want) {
		t.Fatal("merging an empty partial set changed the encoding")
	}
}

// TestUnmarshalPartialHostile: every truncation errors cleanly, and
// seeded random byte flips never panic — the coordinator decodes
// whatever a shard (or an impostor) sends.
func TestUnmarshalPartialHostile(t *testing.T) {
	records := testCorpus()
	b := New(records, nil).Partials().Marshal()
	for i := 0; i < len(b); i += 13 {
		if _, err := UnmarshalPartialSet(b[:i], nil); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", i, len(b))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		c := append([]byte(nil), b...)
		c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
		// Flips that land in value bytes may decode; the property under
		// test is "no panic, no hang" on arbitrary corruption.
		UnmarshalPartialSet(c, nil)
	}
}

// TestPartialFoldMergesAnySplit: round-1 folds of any two halves of a
// corpus merge, in either order, into the bytes of the fold of the
// whole — for random splits that are not substream-aligned, which
// the coordinator never makes but a snapshot's carried fold of clean
// records does (BouncedPartials merges it into the fold of the rest).
// The environment is on, so the geo collectors fold too.
func TestPartialFoldMergesAnySplit(t *testing.T) {
	records, env := generated(7, 3000)
	a := New(records, env)
	fold := func(idx []int) *PartialSet {
		ps := NewPartialSet(env)
		ps.part = partBounced
		for _, i := range idx {
			rec, c := a.Records.At(i), &a.Classified[i]
			ps.Counts[c.ToDomain]++
			ps.addCheap(rec, c)
			if c.failed() {
				ps.detect.addFailed(rec, c)
				ps.durations.addFailed(rec, c)
			}
		}
		return ps
	}
	all := make([]int, len(records))
	for i := range all {
		all[i] = i
	}
	want := fold(all).Marshal()
	rng := rand.New(rand.NewSource(35))
	for trial := range 20 {
		var left, right []int
		p := rng.Float64()
		for i := range records {
			if rng.Float64() < p {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		for _, order := range [][2][]int{{left, right}, {right, left}} {
			ps := fold(order[0])
			if err := ps.Merge(fold(order[1])); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ps.Marshal(), want) {
				t.Fatalf("trial %d: folds of %d and %d records merge into other bytes than the fold of all %d", trial, len(order[0]), len(order[1]), len(records))
			}
		}
	}
}

// TestFactCollectorsReadNoLabel: the collectors a snapshot carries for
// every record (PartialSet.addFacts) fold the same bytes whatever a
// pipeline made of the record's NDR lines. Every verdict's types,
// attempt types and ambiguity are scrambled — each NDR line to another
// type in T1..T16 — and the facts fold of the scrambled corpus must
// equal the true one's, with an environment so the geo collectors
// fold too.
func TestFactCollectorsReadNoLabel(t *testing.T) {
	records, env := generated(7, 3000)
	a := New(records, env)
	rng := rand.New(rand.NewSource(35))
	scrambled := make([]ClassifiedRecord, len(a.Classified))
	moved := 0
	for i, c := range a.Classified {
		s := c
		s.AttemptTypes = append([]ndr.Type(nil), c.AttemptTypes...)
		for j, typ := range s.AttemptTypes {
			if typ != ndr.TNone {
				s.AttemptTypes[j] = ndr.AllTypes[rng.Intn(len(ndr.AllTypes))]
				moved++
			}
		}
		if len(c.Types) > 0 || c.Ambiguous {
			s.Types = []ndr.Type{ndr.AllTypes[rng.Intn(len(ndr.AllTypes))]}
			s.Ambiguous = rng.Intn(2) == 0
		}
		scrambled[i] = s
	}
	if moved == 0 {
		t.Fatal("degenerate corpus: no NDR line to scramble")
	}
	facts := func(verdicts []ClassifiedRecord) []byte {
		ps := NewPartialSet(env)
		for i := range verdicts {
			ps.addFacts(a.Records.At(i), &verdicts[i])
		}
		return ps.Marshal()
	}
	if !bytes.Equal(facts(scrambled), facts(a.Classified)) {
		t.Fatal("a fact collector folds differently under other types")
	}
}
