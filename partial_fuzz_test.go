package bounce_test

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/analysis"
)

// The fuzz corpus is 150 records of the tiny world: enough for
// every collector to hold state, small enough to mutate quickly.
var (
	fuzzOnce  sync.Once
	fuzzShard *analysis.Analysis // what a round 2 is folded over
	fuzzEmpty *analysis.Analysis // no records: ScopedPartials is the scope decode alone
	fuzzEnv   *analysis.Environment
)

func fuzzSetup() {
	fuzzOnce.Do(func() {
		st := bounce.Run(bounce.Options{Scale: bounce.ScaleTiny})
		fuzzEnv = bounce.NewEnvironment(st.World)
		recs := st.Records.Flatten()
		fuzzShard = analysis.New(recs[:min(150, len(recs))], nil)
		fuzzEmpty = analysis.New(nil, nil)
	})
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget is what decoding n bytes of either codec may allocate:
// a fixed multiple of the input, over the empty set's own maps.
func decodeBudget(n int) uint64 { return 64*uint64(n) + 256<<10 }

// FuzzUnmarshalPartialSet fuzzes the two codecs a coordinator and its
// shards decode from one another: the PartialSet envelope every round
// answers with, and the scope round 2 is asked with. For any bytes:
// neither decoder panics or allocates more than a fixed multiple of
// its input; a set that decodes re-encodes to a fixed point, merges
// with its twin into a set that decodes again, and — completed if it
// is a round 1 — renders every partial section without panicking; a
// scope that decodes folds a round 2 that round-trips.
func FuzzUnmarshalPartialSet(f *testing.F) {
	fuzzSetup()
	bounced := fuzzShard.BouncedPartials()
	scope, err := bounced.MarshalScope()
	if err != nil {
		f.Fatal(err)
	}
	scoped, err := fuzzShard.ScopedPartials(scope)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fuzzShard.Partials().Marshal())
	f.Add(bounced.Marshal())
	f.Add(scoped.Marshal())
	f.Add(scope)
	if err := bounced.Complete(scoped); err != nil {
		f.Fatal(err)
	}
	f.Add(bounced.Marshal())

	f.Fuzz(func(t *testing.T, b []byte) {
		var ps *analysis.PartialSet
		var err error
		if n := allocated(func() { ps, err = analysis.UnmarshalPartialSet(b, fuzzEnv) }); n > decodeBudget(len(b)) {
			t.Fatalf("decoding %d bytes as a partial set allocated %d", len(b), n)
		}
		if err == nil {
			checkDecodedSet(t, b, ps)
		}
		if n := allocated(func() { _, err = fuzzEmpty.ScopedPartials(b) }); n > decodeBudget(len(b)) {
			t.Fatalf("decoding %d bytes as a scope allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		sc, err := fuzzShard.ScopedPartials(b)
		if err != nil {
			t.Fatalf("a scope that decodes fails over records: %v", err)
		}
		enc := sc.Marshal()
		rt, err := analysis.UnmarshalPartialSet(enc, nil)
		if err != nil {
			t.Fatalf("a round 2 does not decode: %v", err)
		}
		if !bytes.Equal(rt.Marshal(), enc) {
			t.Fatal("a round 2 does not round-trip to equal bytes")
		}
	})
}

// checkDecodedSet holds a decoded set to the fuzz properties.
func checkDecodedSet(t *testing.T, b []byte, ps *analysis.PartialSet) {
	enc := ps.Marshal()
	rt, err := analysis.UnmarshalPartialSet(enc, fuzzEnv)
	if err != nil {
		t.Fatalf("re-encoded set does not decode: %v", err)
	}
	if !bytes.Equal(rt.Marshal(), enc) {
		t.Fatal("re-encoded set is not a fixed point")
	}
	twin, err := analysis.UnmarshalPartialSet(b, fuzzEnv)
	if err != nil {
		t.Fatal(err)
	}
	completed := ps.Merge(twin) != nil // only a completed set refuses its twin
	if !completed {
		if _, err := analysis.UnmarshalPartialSet(ps.Marshal(), fuzzEnv); err != nil {
			t.Fatalf("merged set does not decode: %v", err)
		}
	}
	if scope, err := ps.MarshalScope(); err == nil {
		sc, err := fuzzShard.ScopedPartials(scope)
		if err != nil {
			t.Fatalf("a round 1's own scope does not decode: %v", err)
		}
		if err := ps.Complete(sc); err != nil {
			t.Fatal(err)
		}
	}
	err = bounce.NewPartialStudy(ps).WriteReport(io.Discard, bounce.PartialSections)
	if err != nil && ps.Renderable() == nil {
		t.Fatalf("a renderable set fails to render: %v", err)
	}
}
