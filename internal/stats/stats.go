// Package stats provides the small numeric helpers the analysis layer
// uses — means, percentiles, ratios — and the fixed-bucket latency
// histogram the service's metrics share.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It sorts a copy.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// FractionAtLeast returns the share of values >= threshold.
func FractionAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Histogram is a fixed-bucket histogram of latencies in nanoseconds.
// Buckets[i] counts observations at or below Bounds[i] — Prometheus's
// inclusive le — and the last bucket, past every bound, is +Inf. It
// holds no lock: its owner serializes Observe against reads.
type Histogram struct {
	Bounds  []int64
	Buckets []uint64
	Count   uint64
	Sum     int64
}

// NewHistogram is an empty histogram over bounds, which ascend.
func NewHistogram(bounds []int64) Histogram {
	return Histogram{Bounds: bounds, Buckets: make([]uint64, len(bounds)+1)}
}

// Observe counts one latency of ns nanoseconds.
func (h *Histogram) Observe(ns int64) {
	h.Buckets[sort.Search(len(h.Bounds), func(i int) bool { return ns <= h.Bounds[i] })]++
	h.Count++
	h.Sum += ns
}

// Clone is a copy later observations do not reach.
func (h Histogram) Clone() Histogram {
	h.Buckets = append([]uint64(nil), h.Buckets...)
	return h
}

// Quantile estimates the q-quantile (0..1) in nanoseconds by linear
// interpolation within the containing bucket, the same estimate a
// Prometheus histogram_quantile would produce from the exposition.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		lo := float64(0)
		if i > 0 {
			lo = float64(h.Bounds[i-1])
		}
		hi := lo * 2
		if i < len(h.Bounds) {
			hi = float64(h.Bounds[i])
		}
		if seen+float64(b) >= rank {
			return lo + (rank-seen)/float64(b)*(hi-lo)
		}
		seen += float64(b)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// Ratio is a safe division returning 0 for a zero denominator.
func Ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Pct is Ratio×100.
func Pct(num, den int) float64 { return Ratio(num, den) * 100 }
