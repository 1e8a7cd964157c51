package score

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// oldDifferential is the allocating Mean → Pairwise path Differential
// replaced, kept as the oracle the fused kernel must match bit for bit,
// errors included.
func oldDifferential(instance timeseries.Series, peers []timeseries.Series) (float64, error) {
	if len(peers) == 0 {
		return 0, ErrNoTraces
	}
	avg, err := timeseries.Mean(peers...)
	if err != nil {
		return 0, fmt.Errorf("score: averaging %d peers: %w", len(peers), err)
	}
	return Pairwise(instance, avg)
}

// sameOutcome fails unless (got, gotErr) equals (want, wantErr): the same
// float64 bits, or errors with the same message wrapping the same sentinel.
func sameOutcome(t *testing.T, label string, got float64, gotErr error, want float64, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, want %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %q, want %q", label, gotErr, wantErr)
		}
		for _, sentinel := range []error{ErrNoTraces, ErrZeroPeak, timeseries.ErrLenMismatch, timeseries.ErrMisaligned} {
			if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
				t.Fatalf("%s: err %v and %v disagree on %v", label, gotErr, wantErr, sentinel)
			}
		}
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x), want %v (%#x)", label, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkDifferential asserts Differential and, when the peers can be summed,
// DifferentialSum over that sum both match the oracle.
func checkDifferential(t *testing.T, label string, instance timeseries.Series, peers []timeseries.Series) {
	t.Helper()
	want, wantErr := oldDifferential(instance, peers)
	got, err := Differential(instance, peers)
	sameOutcome(t, label+"/Differential", got, err, want, wantErr)
	var sum timeseries.Series
	if len(peers) > 0 {
		if sum, err = timeseries.Sum(peers...); err != nil {
			return // misaligned peers have no sum to hand over
		}
	}
	got, err = DifferentialSum(instance, sum, len(peers))
	sameOutcome(t, label+"/DifferentialSum", got, err, want, wantErr)
}

func mkStep(step time.Duration, vals ...float64) timeseries.Series {
	return timeseries.New(t0, step, vals)
}

func TestDifferentialMatchesMeanPath(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	long := benchTraces(5, 1008, 31)
	cases := []struct {
		name     string
		instance timeseries.Series
		peers    []timeseries.Series
	}{
		{"one peer", mk(10, 0, 3), []timeseries.Series{mk(0, 8, 1)}},
		{"three peers", mk(10, 0, 3), []timeseries.Series{mk(0, 8, 1), mk(2, 2, 2), mk(7, 1, 9)}},
		{"synchronous", mk(10, 0), []timeseries.Series{mk(8, 0), mk(6, 0)}},
		{"week, four peers", long[0], long[1:]},
		{"NaN in instance", mk(nan, 4, 2), []timeseries.Series{mk(1, 2, 3), mk(3, 2, 1)}},
		{"NaN in peers", mk(1, 4, 2), []timeseries.Series{mk(nan, 2, 3), mk(3, nan, 1)}},
		{"all-NaN instance", mk(nan, nan), []timeseries.Series{mk(1, 2)}},
		{"all-NaN peers", mk(1, 2), []timeseries.Series{mk(nan, nan), mk(nan, 1)}},
		{"+Inf readings", mk(inf, 1), []timeseries.Series{mk(inf, 2), mk(1, 1)}},
		{"zero-peak instance", mk(0, 0, 0), []timeseries.Series{mk(1, 2, 3)}},
		{"negative instance", mk(-1, -2), []timeseries.Series{mk(1, 2)}},
		{"zero-peak peers", mk(1, 2, 3), []timeseries.Series{mk(0, 0, 0), mk(0, -1, 0)}},
		{"zero-peak both", mk(0, 0), []timeseries.Series{mk(0, 0)}},
		{"zero-peak aggregate", mk(5, -10), []timeseries.Series{mk(-10, 5)}},
		{"instance longer", mk(1, 2, 3), []timeseries.Series{mk(1, 2)}},
		{"instance shorter", mk(1), []timeseries.Series{mk(1, 2), mk(2, 1)}},
		{"length mismatch and zero-peak instance", mk(0), []timeseries.Series{mk(1, 2)}},
		{"instance step", mkStep(time.Hour, 1, 2), []timeseries.Series{mk(2, 1)}},
		{"peer length mismatch", mk(1, 2), []timeseries.Series{mk(2, 1), mk(1, 2, 3)}},
		{"peer step mismatch", mk(1, 2), []timeseries.Series{mk(2, 1), mk(1, 1), mkStep(time.Hour, 1, 2)}},
		{"peer mismatch beats zero-peak instance", mk(0, 0), []timeseries.Series{mk(2, 1), mk(1)}},
		{"empty instance", timeseries.Series{}, []timeseries.Series{mk(1, 2)}},
		{"empty peer series", mk(1, 2), []timeseries.Series{{}}},
		{"empty instance and peers", timeseries.Series{}, []timeseries.Series{{}, {}}},
		{"no peers", mk(1, 2), nil},
		{"no peers, zero instance", mk(0, 0), []timeseries.Series{}},
	}
	for _, tc := range cases {
		checkDifferential(t, tc.name, tc.instance, tc.peers)
	}
}

// randTrace draws a trace whose readings are mostly positive, sometimes
// negative, zero or NaN, so the randomized sweep hits the error paths too.
func randTrace(rng *rand.Rand, n int, step time.Duration) timeseries.Series {
	s := timeseries.Zeros(t0, step, n)
	mode := rng.Intn(10)
	for i := range s.Values {
		switch {
		case mode == 0:
			s.Values[i] = -rng.Float64() * 10 // non-positive peak
		case mode == 1 && rng.Intn(8) == 0:
			s.Values[i] = math.NaN()
		case mode == 2:
			s.Values[i] = rng.NormFloat64() * 100 // mixed signs
		default:
			s.Values[i] = rng.Float64()*300 + 1e-3
		}
	}
	return s
}

func TestDifferentialMatchesMeanPathRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 600; trial++ {
		m := 1 + trial%32
		n := 1 + rng.Intn(3*diffBlock)
		peers := make([]timeseries.Series, m)
		for j := range peers {
			peers[j] = randTrace(rng, n, time.Minute)
		}
		inst := randTrace(rng, n, time.Minute)
		switch rng.Intn(20) {
		case 0:
			inst = randTrace(rng, n+1, time.Minute)
		case 1:
			inst.Step = time.Hour
		case 2:
			peers[rng.Intn(m)] = randTrace(rng, n+1, time.Minute)
		case 3:
			peers[rng.Intn(m)].Step = time.Hour
		}
		checkDifferential(t, fmt.Sprintf("trial %d (%d peers × %d)", trial, m, n), inst, peers)
	}
}

// FuzzDifferential decodes arbitrary float64 readings (NaN, ±Inf and
// subnormals included) from the raw bytes and checks both kernels against
// the Mean → Pairwise oracle.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x24, 0x40, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, uint8(3), uint8(5), uint8(0))
	f.Add([]byte{0xff, 0xf8, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(16), uint8(40), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, npeers, length, skew uint8) {
		next := 0
		reading := func() float64 {
			if len(raw) < 8 {
				next++
				if len(raw) == 0 {
					return float64(next % 7)
				}
				return float64(int8(raw[next%len(raw)]))
			}
			at := next % (len(raw) - 7)
			next++
			var bits uint64
			for _, b := range raw[at : at+8] {
				bits = bits<<8 | uint64(b)
			}
			return math.Float64frombits(bits)
		}
		series := func(n int, step time.Duration) timeseries.Series {
			s := timeseries.Zeros(t0, step, n)
			for i := range s.Values {
				s.Values[i] = reading()
			}
			return s
		}
		m, n := int(npeers%33), int(length)
		instLen, lastLen, firstStep := n, n, time.Minute
		if skew&1 != 0 {
			instLen++
		}
		if skew&2 != 0 {
			lastLen++
		}
		if skew&4 != 0 {
			firstStep = time.Hour
		}
		peers := make([]timeseries.Series, m)
		for j := range peers {
			step, pn := time.Minute, n
			if j == 0 {
				step = firstStep
			}
			if j == m-1 {
				pn = lastLen
			}
			peers[j] = series(pn, step)
		}
		checkDifferential(t, "fuzz", series(instLen, time.Minute), peers)
	})
}

// TestDifferentialAllocFree pins both differential entry points at zero
// allocations: the per-arrival admission loop calls them once per
// candidate leaf.
func TestDifferentialAllocFree(t *testing.T) {
	traces := benchTraces(17, 1008, 5)
	inst, peers := traces[0], traces[1:]
	sum, err := timeseries.Sum(peers...)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Differential(inst, peers); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Differential allocs = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DifferentialSum(inst, sum, len(peers)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DifferentialSum allocs = %v, want 0", n)
	}
}
