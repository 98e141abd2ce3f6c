package analysis

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dataset"
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
