package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram accumulates values into exponential buckets, for latency
// distributions (e.g. per-miss handling time). The zero value is not
// usable; create with NewHistogram.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; last bucket is overflow
	counts []uint64
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds exponential buckets from lo doubling until hi.
func NewHistogram(lo, hi float64) *Histogram {
	if lo <= 0 || hi <= lo {
		panic("stats: bad histogram range")
	}
	var bounds []float64
	for b := lo; b < hi; b *= 2 {
		bounds = append(bounds, b)
	}
	bounds = append(bounds, hi)
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Add records one value.
func (h *Histogram) Add(v float64) {
	h.counts[h.bucket(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// bucket returns the index of the first bound v does not exceed, or
// len(bounds) for the overflow bucket, in O(1). The bounds below hi
// are lo·2^k, so bound k has lo's binary exponent plus k, and for
// lo < v <= hi the difference between v's exponent and lo's is v's
// bucket or the one below it (further below only for a subnormal lo).
// The v > bound test that defines the buckets then settles it, as a
// scan of the bounds would. hi, which need not continue the doubling,
// is checked on its own.
func (h *Histogram) bucket(v float64) int {
	b := h.bounds
	if !(v > b[0]) {
		return 0
	}
	if v > b[len(b)-1] {
		return len(b)
	}
	// Both are positive, so their bits above the 52-bit significand
	// are the biased exponent.
	i := int(math.Float64bits(v)>>52) - int(math.Float64bits(b[0])>>52)
	for v > b[i] {
		i++
	}
	return i
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns an upper bound for the p-th percentile (0 < p <=
// 100) from the bucket boundaries.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			if i < len(h.bounds) && h.bounds[i] < h.max {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// String renders a compact bar chart of the distribution.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty histogram)\n"
	}
	var b strings.Builder
	var peak uint64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		var label string
		switch {
		case i == 0:
			label = fmt.Sprintf("<=%.3g", h.bounds[0])
		case i < len(h.bounds):
			label = fmt.Sprintf("<=%.3g", h.bounds[i])
		default:
			label = fmt.Sprintf("> %.3g", h.bounds[len(h.bounds)-1])
		}
		bar := strings.Repeat("#", int(math.Ceil(float64(c)/float64(peak)*40)))
		fmt.Fprintf(&b, "%10s %8d %s\n", label, c, bar)
	}
	fmt.Fprintf(&b, "n=%d mean=%.4g min=%.4g max=%.4g\n", h.total, h.Mean(), h.Min(), h.Max())
	return b.String()
}
