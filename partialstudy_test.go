package bounce_test

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
)

// TestPartialStudyMatchesStudyBytes: rendering through the partial
// aggregates must reproduce the full study's report byte-for-byte on
// every partial-renderable section — the invariant the coordinator
// tier stands on.
func TestPartialStudyMatchesStudyBytes(t *testing.T) {
	st := tinyStudy(t)
	var want bytes.Buffer
	if err := st.WriteReport(&want, bounce.PartialSections); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := bounce.NewPartialStudy(st.Partials()).WriteReport(&got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("partial-study report diverges from study report (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if want.Len() == 0 {
		t.Fatal("empty reference report")
	}
}

// TestShardedPartialReportMatchesBatch: partition the corpus by
// substream ownership, analyze shards independently, merge their
// wire-encoded partials in random orders — the merged report must be
// byte-identical to the unsharded batch report every time.
func TestShardedPartialReportMatchesBatch(t *testing.T) {
	st := tinyStudy(t)
	records := st.Records.Flatten()
	env := bounce.NewEnvironment(st.World)

	var want bytes.Buffer
	if err := bounce.Reference(dataset.NewSliceSource(records), env).WriteReport(&want, bounce.PartialSections); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 16} {
		parts := make([][]dataset.Record, n)
		for i := range records {
			own := analysis.OwnerOf(&records[i], n)
			parts[own] = append(parts[own], records[i])
		}
		blobs := make([][]byte, n)
		for i, part := range parts {
			blobs[i] = analysis.New(part, env).Partials().Marshal()
		}
		for trial := 0; trial < 3; trial++ {
			order := rng.Perm(n)
			var merged *analysis.PartialSet
			for _, i := range order {
				ps, err := analysis.UnmarshalPartialSet(blobs[i], env)
				if err != nil {
					t.Fatalf("shards=%d: decode shard %d: %v", n, i, err)
				}
				if merged == nil {
					merged = ps
					continue
				}
				if err := merged.Merge(ps); err != nil {
					t.Fatalf("shards=%d: merge shard %d: %v", n, i, err)
				}
			}
			var got bytes.Buffer
			if err := bounce.NewPartialStudy(merged).WriteReport(&got, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("shards=%d order=%v: merged report diverges from batch (%d vs %d bytes)",
					n, order, got.Len(), want.Len())
			}
		}
	}
}

// TestShardedPartialTwoRoundsReportMatchesBatch: the report rendered
// from the two-round gather — with and without an environment, over 1,
// 2, 3 and 16 substream shards — is byte-identical to the unsharded
// batch report and to the one rendered from the shards' whole partials.
func TestShardedPartialTwoRoundsReportMatchesBatch(t *testing.T) {
	st := tinyStudy(t)
	records := st.Records.Flatten()
	render := func(ps *analysis.PartialSet) []byte {
		var buf bytes.Buffer
		if err := bounce.NewPartialStudy(ps).WriteReport(&buf, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, env := range []*analysis.Environment{nil, bounce.NewEnvironment(st.World)} {
		var want bytes.Buffer
		if err := bounce.Reference(dataset.NewSliceSource(records), env).WriteReport(&want, bounce.PartialSections); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 16} {
			shards := make([]*analysis.Analysis, n)
			parts := make([][]dataset.Record, n)
			for i := range records {
				own := analysis.OwnerOf(&records[i], n)
				parts[own] = append(parts[own], records[i])
			}
			var whole *analysis.PartialSet
			for i, part := range parts {
				shards[i] = analysis.New(part, env)
				ps, err := analysis.UnmarshalPartialSet(shards[i].Partials().Marshal(), env)
				if err != nil {
					t.Fatal(err)
				}
				if whole == nil {
					whole = ps
				} else if err := whole.Merge(ps); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := analysis.GatherPartials(shards, env)
			if err != nil {
				t.Fatal(err)
			}
			got := render(merged)
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("env=%v shards=%d: two-round report diverges from batch (%d vs %d bytes)", env != nil, n, len(got), want.Len())
			}
			if ref := render(whole); !bytes.Equal(got, ref) {
				t.Errorf("env=%v shards=%d: two-round report diverges from the whole partials' (%d vs %d bytes)", env != nil, n, len(got), len(ref))
			}
		}
	}
}

// TestPartialStudyRejectsCorpusSections: squat and advice need the
// raw corpus no partial set carries; asking for them is an error, not
// silently absent output.
func TestPartialStudyRejectsCorpusSections(t *testing.T) {
	st := tinyStudy(t)
	ps := bounce.NewPartialStudy(st.Partials())
	for _, sec := range []bounce.Section{bounce.SecSquat, bounce.SecAdvice} {
		if err := ps.WriteReport(io.Discard, []bounce.Section{sec}); err == nil {
			t.Errorf("section %q rendered from partials; want error", sec)
		}
	}
	for _, sec := range bounce.PartialSections {
		if sec == bounce.SecSquat || sec == bounce.SecAdvice {
			t.Fatalf("PartialSections contains %q", sec)
		}
	}
}

// TestSharedPartialSetRendersRaceFree: eight goroutines render one
// shared PartialSet at once, the way a node's cached study answers
// concurrent reports and a coordinator renders its merged set. Result
// methods only read the set, so under -race a result method that
// writes into it (a per-country row, a lazily sorted rank) fails here.
// Every report equals the one a lone render gives, and the set encodes
// to the same bytes after every section was rendered from it as before.
func TestSharedPartialSetRendersRaceFree(t *testing.T) {
	st := tinyStudy(t)
	ps := st.Partials()
	before := ps.Marshal()
	render := func() []byte {
		var buf bytes.Buffer
		if err := bounce.NewPartialStudy(ps).WriteReport(&buf, nil); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render()
		}()
	}
	wg.Wait()
	want := render()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("concurrent render %d differs from a lone one (%d vs %d bytes)", i, len(b), len(want))
		}
	}
	if !bytes.Equal(ps.Marshal(), before) {
		t.Error("rendering every section changed the set's bytes")
	}
}
