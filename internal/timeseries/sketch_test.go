package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

// randomSeries builds an n-point series with values drawn by gen.
func randomSeries(rng *rand.Rand, n int, gen func(*rand.Rand) float64) Series {
	s := Zeros(t0, Minute, n)
	for i := range s.Values {
		s.Values[i] = gen(rng)
	}
	return s
}

// TestPercentileSketchBoundProperty: the sketch must stay within its
// documented bound ε·(max−min)/2 of the exact sort path for randomized
// series, lengths, epsilons and percentiles — with the extremes exact.
func TestPercentileSketchBoundProperty(t *testing.T) {
	gens := map[string]func(*rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return r.Float64() * 300 },
		"normal":    func(r *rand.Rand) float64 { return 150 + 40*r.NormFloat64() },
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(3 + r.NormFloat64()) },
		"spiky": func(r *rand.Rand) float64 {
			if r.Float64() < 0.02 {
				return 1000 + r.Float64()*500
			}
			return 50 + r.Float64()*10
		},
	}
	var calc PercentileCalc
	for name, gen := range gens {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			n := rng.Intn(2000) + 1
			s := randomSeries(rng, n, gen)
			eps := []float64{1, 0.25, 0.05, 0.01, 0.001}[trial%5]
			sk, err := NewPercentileSketch(eps)
			if err != nil {
				t.Fatal(err)
			}
			bound := sk.ErrorBound(s)
			for _, p := range []float64{0, 1, 25, 50, 75, 90, 95, 99, 100, rng.Float64() * 100} {
				exact := calc.Percentile(s, p)
				got := sk.Percentile(s, p)
				// Allow a whisker of float slack on top of the analytic
				// bound: bucket-index rounding at edges.
				if diff := math.Abs(got - exact); diff > bound+1e-9*math.Abs(exact) {
					t.Fatalf("%s trial %d n=%d eps=%v p=%v: |%v - %v| = %v > bound %v",
						name, trial, n, eps, p, got, exact, diff, bound)
				}
			}
			if got := sk.Percentile(s, 0); got != calc.Percentile(s, 0) {
				t.Fatalf("%s trial %d: p=0 not exact", name, trial)
			}
			if got := sk.Percentile(s, 100); got != calc.Percentile(s, 100) {
				t.Fatalf("%s trial %d: p=100 not exact", name, trial)
			}
		}
	}
}

// TestPercentileSketchEdgeCases: empty → NaN, constant → exact, and
// PercentilesAppend agrees element-wise with Percentile.
func TestPercentileSketchEdgeCases(t *testing.T) {
	sk, err := NewPercentileSketch(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sk.Percentile(Series{}, 50)) {
		t.Fatal("empty series did not return NaN")
	}
	if got := sk.PercentilesAppend(nil, Series{}, 5, 95); len(got) != 2 || !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
		t.Fatalf("empty PercentilesAppend: %v", got)
	}
	if sk.ErrorBound(Series{}) != 0 {
		t.Fatal("empty ErrorBound not 0")
	}

	konst := Zeros(t0, Minute, 50)
	for i := range konst.Values {
		konst.Values[i] = 42
	}
	for _, p := range []float64{0, 37, 100} {
		if got := sk.Percentile(konst, p); got != 42 {
			t.Fatalf("constant series p=%v: got %v", p, got)
		}
	}
	if sk.ErrorBound(konst) != 0 {
		t.Fatal("constant ErrorBound not 0")
	}

	rng := rand.New(rand.NewSource(5))
	s := randomSeries(rng, 333, func(r *rand.Rand) float64 { return r.Float64() * 100 })
	ps := []float64{5, 50, 95, 99}
	batch := sk.PercentilesAppend(nil, s, ps...)
	for i, p := range ps {
		if batch[i] != sk.Percentile(s, p) {
			t.Fatalf("PercentilesAppend[%d] differs from Percentile(%v)", i, p)
		}
	}

	for _, eps := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := NewPercentileSketch(eps); err == nil {
			t.Fatalf("NewPercentileSketch(%v) accepted", eps)
		}
	}
}

func BenchmarkPercentileSketchWeek(b *testing.B) {
	s := benchSeries(MinutesPerWeek, 4)
	sk, err := NewPercentileSketch(0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sk.Percentile(s, 95)
	}
}
