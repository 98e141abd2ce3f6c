package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %g", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil)")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated input")
	}
}

func TestMedianIsP50(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		return Median(xs) == Percentile(xs, 50)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionAtLeast(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := FractionAtLeast(xs, 30); got != 0.5 {
		t.Errorf("FractionAtLeast = %g", got)
	}
	if FractionAtLeast(nil, 1) != 0 {
		t.Error("empty input")
	}
}

// TestHistogram pins the Prometheus bucket
// semantics: le is an inclusive upper bound, so an observation exactly
// at a bound lands in that bound's bucket, and one past the last bound
// lands only in +Inf.
func TestHistogram(t *testing.T) {
	h := NewHistogram([]int64{500, 1000, 2000})
	h.Observe(500) // exactly at the first bound: le="5e-07" includes it
	h.Observe(501) // one past: next bucket
	h.Observe(2000)
	h.Observe(2001) // beyond every finite bound: +Inf only
	if want := []uint64{1, 1, 1, 1}; !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("buckets = %v, want %v (bounds are inclusive)", h.Buckets, want)
	}
	if h.Count != 4 || h.Sum != 500+501+2000+2001 {
		t.Errorf("count %d sum %d", h.Count, h.Sum)
	}
	c := h.Clone()
	h.Observe(1)
	if c.Buckets[0] != 1 || c.Count != 4 {
		t.Error("a clone saw a later observation")
	}
	if q := c.Quantile(0.5); q != 1000 {
		t.Errorf("median = %g, want 1000 (the top of the second bucket)", q)
	}
}

func TestRatioAndPct(t *testing.T) {
	if Ratio(1, 0) != 0 || Pct(1, 0) != 0 {
		t.Error("zero denominator should yield 0")
	}
	if Ratio(1, 4) != 0.25 || Pct(1, 4) != 25 {
		t.Error("ratio math")
	}
}
