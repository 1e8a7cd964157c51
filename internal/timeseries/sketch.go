// Bucketed percentile sketch — an approximation for scoring sweeps that
// don't need exact ranks.
//
// The exact path (Series.Percentile / PercentileCalc) fully sorts every
// series: ~O(n log n) per call, ~744µs for a week of 5-minute readings at
// bench scale. PercentileSketch is a fixed-ε histogram over ⌈1/ε⌉
// equal-width buckets instead: two passes over the series, O(n + 1/ε) per
// call, with the provable bound |sketch − exact| ≤ ε·(max−min)/2 (see
// Percentile). Its output is a pure function of the input values. The exact
// sort path remains the default everywhere.
package timeseries

import (
	"fmt"
	"math"
)

// PercentileSketch computes approximate percentiles by bucketing a series
// into k = ⌈1/ε⌉ equal-width buckets between its min and max, reusing one
// internal count buffer across calls (like PercentileCalc). Guarantee, per
// call: |Percentile(s, p) − s.Percentile(p)| ≤ ε·(max−min)/2, with p ≤ 0,
// p ≥ 100 and constant series exact. A PercentileSketch must not be shared
// between goroutines; parallel stages hold one per worker.
type PercentileSketch struct {
	eps    float64
	counts []int
}

// NewPercentileSketch returns a sketch with error bound ε·(max−min)/2 for
// 0 < ε ≤ 1. Memory is one ⌈1/ε⌉-length count buffer, reused across calls.
func NewPercentileSketch(eps float64) (*PercentileSketch, error) {
	if math.IsNaN(eps) || eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("timeseries: sketch epsilon %v out of range (0, 1]", eps)
	}
	return &PercentileSketch{
		eps:    eps,
		counts: make([]int, int(math.Ceil(1/eps))),
	}, nil
}

// Epsilon returns the sketch's configured ε.
func (c *PercentileSketch) Epsilon() float64 { return c.eps }

// ErrorBound returns the worst-case absolute error of Percentile on this
// series: ε·(max−min)/2, and 0 for empty or constant series.
func (c *PercentileSketch) ErrorBound(s Series) float64 {
	if s.Empty() {
		return 0
	}
	lo, hi := minMax(s.Values)
	return c.eps * (hi - lo) / 2
}

// Percentile returns an estimate of the p-th percentile of the readings in
// two O(n) passes (min/max, then bucket counts) instead of a sort.
//
// Error bound: each order statistic lands in a known bucket of width
// w = (max−min)/k ≤ ε·(max−min), and is estimated by that bucket's midpoint
// — at most w/2 away. The exact value interpolates the two closest order
// statistics convexly, and so does the estimate, so the estimate is within
// ε·(max−min)/2 of Series.Percentile(p). p ≤ 0 returns the exact min,
// p ≥ 100 the exact max; an empty series returns NaN (the PercentileCalc
// convention).
func (c *PercentileSketch) Percentile(s Series, p float64) float64 {
	if s.Empty() {
		return math.NaN()
	}
	lo, hi, w, ok := c.load(s)
	if !ok {
		return lo // constant series: every percentile is the single value
	}
	return c.fromCounts(len(s.Values), lo, hi, w, p)
}

// PercentilesAppend appends estimates of the given percentiles of s to dst
// over a single bucketing pass and returns the extended slice — the sketch
// counterpart of PercentileCalc.PercentilesAppend. An empty series appends
// one NaN per requested percentile.
func (c *PercentileSketch) PercentilesAppend(dst []float64, s Series, ps ...float64) []float64 {
	if s.Empty() {
		for range ps {
			dst = append(dst, math.NaN())
		}
		return dst
	}
	lo, hi, w, ok := c.load(s)
	for _, p := range ps {
		if !ok {
			dst = append(dst, lo)
			continue
		}
		dst = append(dst, c.fromCounts(len(s.Values), lo, hi, w, p))
	}
	return dst
}

// load fills the count buffer for the series. It returns the extrema and
// bucket width; ok is false for constant series (no bucketing needed — the
// minimum is the exact answer for every percentile).
func (c *PercentileSketch) load(s Series) (lo, hi, w float64, ok bool) {
	lo, hi = minMax(s.Values)
	if hi == lo {
		return lo, hi, 0, false
	}
	k := len(c.counts)
	for i := range c.counts {
		c.counts[i] = 0
	}
	w = (hi - lo) / float64(k)
	for _, v := range s.Values {
		b := int((v - lo) / w)
		if b >= k { // v == hi, or float rounding at the top edge
			b = k - 1
		}
		c.counts[b]++
	}
	return lo, hi, w, true
}

// fromCounts evaluates one percentile from the loaded count buffer,
// mirroring percentileOfSorted's closest-ranks interpolation with each order
// statistic replaced by its bucket's midpoint.
func (c *PercentileSketch) fromCounts(n int, lo, hi, w float64, p float64) float64 {
	if p <= 0 {
		return lo
	}
	if p >= 100 {
		return hi
	}
	rank := p / 100 * float64(n-1)
	rlo := int(math.Floor(rank))
	rhi := int(math.Ceil(rank))
	vlo := c.orderStat(rlo, lo, w)
	if rlo == rhi {
		return vlo
	}
	vhi := c.orderStat(rhi, lo, w)
	frac := rank - float64(rlo)
	return vlo*(1-frac) + vhi*frac
}

// orderStat estimates the r-th (0-based) order statistic as the midpoint of
// the bucket holding it.
func (c *PercentileSketch) orderStat(r int, lo, w float64) float64 {
	cum := 0
	for b, cnt := range c.counts {
		cum += cnt
		if cum > r {
			return lo + (float64(b)+0.5)*w
		}
	}
	// Unreachable for r < n; return the top edge defensively.
	return lo + float64(len(c.counts))*w
}

// minMax returns the minimum and maximum of a non-empty slice.
func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
