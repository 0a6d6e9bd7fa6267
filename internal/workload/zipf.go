// Package workload generates synthetic memory-reference traces and
// shared-memory access patterns.
//
// The paper evaluates cache miss ratios with four ATUM traces of VAX
// 8200 / VMS executions (358k-540k four-byte references, ~25% operating
// system references accounting for ~50% of the misses, light
// multiprogramming). Those traces are not available, so this package
// synthesizes traces with the same structural properties: sequential
// instruction fetch with loops and calls, stack and heap data references
// with working-set locality, occasional sequential sweeps, and
// supervisor-mode bursts with deliberately poorer locality. Profiles in
// profiles.go are calibrated so the resulting cold-start miss ratios
// fall in the regime the paper reports (fractions of a percent for
// 128-256 KB caches).
package workload

import (
	"math"

	"vmp/internal/sim"
)

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s, using a precomputed cumulative table and a guide table
// into it. It is deterministic given the Rand passed to Sample.
type Zipf struct {
	cdf []float64
	// guide[k] is the smallest i with cdf[i] >= k/len(guide), capped at
	// n-1. len(guide) is the smallest power of two >= 2n, so u*len(guide)
	// and k/len(guide) are exact and a draw scans about one entry.
	guide []int32
}

// NewZipf builds a sampler over n items with exponent s >= 0.
// s = 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf over empty domain")
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
	m := 1
	for m < 2*n {
		m <<= 1
	}
	guide := make([]int32, m)
	i := 0
	for k := range guide {
		for i < n-1 && cdf[i] < float64(k)/float64(m) {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide}
}

// N returns the domain size.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws one value in [0, N()).
func (z *Zipf) Sample(r *sim.Rand) int { return z.index(r.Float64()) }

// index returns the value a uniform draw u in [0, 1) selects: the
// smallest i with cdf[i] >= u, or N()-1, as a binary search of cdf
// would. The guide entry for u's bucket is at or below that i, and the
// scan walks up to it.
func (z *Zipf) index(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for i < len(z.cdf)-1 && z.cdf[i] < u {
		i++
	}
	return i
}
