package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported high percentile.
// With fewer, the percentile is one or two unlucky samples, not a tail.
const minBeyond = 10

// samples collects one kind of latency, in seconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Seconds()) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the two middle values for an
// even count); NaN for no samples.
func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile and whether it may be
// reported: only when at least minBeyond samples lie above its rank.
func (s samples) percentile(p float64) (float64, bool) {
	n := len(s)
	if n == 0 || p <= 0 || p >= 100 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return math.NaN(), false
	}
	return s.sorted()[rank-1], true
}
