package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// percentileLadder is the set of percentiles the benchmark reports. A
// percentile is only as good as the samples beyond it, so the highest
// rung a sample supports is the one with at least minBeyond samples
// above it (choosing-metrics §1).
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

const minBeyond = 10

// highestPercentile returns the highest rung of the ladder that leaves
// at least minBeyond of n samples beyond it, or 0 when even the median
// does not (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-nearestRank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// nearestRank is the 1-based position of the p-th percentile among n
// ascending samples: the smallest rank with at least p% of the samples
// at or below it. The epsilon keeps 90% of 100 at 90, not 91.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted (which
// must be ascending); 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// sample is a bag of measurements reduced to order statistics at the end.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) pct(p float64) float64 { return percentile(s.sorted(), p) }

// median interpolates between the two middle values of an even count,
// so a two-rep run reports a number between its reps rather than the
// lower one.
func (s sample) median() float64 { return stats.Median(s) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
