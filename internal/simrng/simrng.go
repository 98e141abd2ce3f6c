// Package simrng provides the deterministic randomness used by every
// generator in the simulation. All randomness in a run flows from one
// seed; named sub-streams keep independent subsystems reproducible even
// when the order or volume of draws in another subsystem changes.
package simrng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
)

// RNG is a deterministic random source with the distribution samplers the
// world generator and delivery engine need.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{src: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Stream derives an independent, named sub-RNG. Two streams with different
// names never share state; the same (seed, name) pair always yields the
// same stream.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &RNG{src: rand.New(rand.NewPCG(r.src.Uint64()^h.Sum64(), h.Sum64()))}
}

// Float64 returns a uniform float in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Exp returns an exponential variate with the given mean. The world model
// uses it for inter-arrival times and short misconfiguration episodes.
func (r *RNG) Exp(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// LogNormal returns a log-normal variate parameterized by the mean and
// standard deviation of the underlying normal. Misconfiguration-episode
// durations (Figure 7) are heavy-tailed and modeled log-normally.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// Pareto returns a Pareto variate with scale xm and shape alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson variate with the given mean, using Knuth's
// method for small means and a normal approximation for large ones.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := int(math.Round(mean + math.Sqrt(mean)*r.src.NormFloat64()))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Pick returns a uniformly chosen element of items. It panics on an empty
// slice, matching IntN's contract.
func Pick[T any](r *RNG, items []T) T { return items[r.IntN(len(items))] }

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. It precomputes the cumulative distribution once so each
// draw is a binary search; the InEmailRank popularity model uses it for
// receiver-domain selection.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("simrng: NewZipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank in [0, N()).
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Prob returns the probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// Weighted samples indices with probability proportional to the supplied
// weights. Weights of zero are legal; negative weights panic.
type Weighted struct {
	cdf []float64
}

// NewWeighted builds a weighted sampler. At least one weight must be
// positive.
func NewWeighted(weights []float64) *Weighted {
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("simrng: negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("simrng: all weights zero")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{cdf: cdf}
}

// Sample draws an index in [0, len(weights)).
func (w *Weighted) Sample(r *RNG) int {
	u := r.Float64()
	i := sort.SearchFloat64s(w.cdf, u)
	// Guard against rounding pushing the search past the last entry.
	if i >= len(w.cdf) {
		i = len(w.cdf) - 1
	}
	// u == 0 can land on a zero-weight prefix; advance to the first
	// index with positive mass.
	for i < len(w.cdf)-1 && w.cdf[i] == 0 {
		i++
	}
	return i
}
