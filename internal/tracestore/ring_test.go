package tracestore

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// advanceByCopy is the allocate-and-copy window advance the in-place one
// replaced: a fresh all-gap slice, the kept values copied in, a full
// recount.
func advanceByCopy(r *ring, n int, step time.Duration, slots int) {
	nv := nanSlice(slots)
	if n < slots {
		copy(nv, r.values[n:])
	}
	r.values = nv
	r.recount(nv)
	r.start = r.start.Add(time.Duration(n) * step)
}

// storeOf wraps one ring as instance "a" of a store.
func storeOf(cfg Config, r *ring) *Store {
	st := New(cfg)
	st.mu.Lock()
	st.instances["a"] = r
	st.mu.Unlock()
	return st
}

func TestAdvanceInPlaceMatchesCopy(t *testing.T) {
	const slots = 48
	cfg := Config{Step: time.Minute, Retention: slots * time.Minute}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		values := nanSlice(slots)
		for i := range values {
			if rng.Float64() < 0.7 {
				values[i] = float64(rng.Intn(500))
			}
		}
		latest := t0.Add(time.Duration(rng.Intn(slots)) * time.Minute)
		got := &ring{start: t0, values: append([]float64(nil), values...), latest: latest}
		got.recount(got.values)
		want := &ring{start: t0, values: append([]float64(nil), values...), latest: latest}
		want.recount(want.values)

		n := 1 + rng.Intn(slots+8) // past the whole window now and then
		got.advance(n, time.Minute)
		advanceByCopy(want, n, time.Minute, slots)

		if !got.start.Equal(want.start) || got.count != want.count {
			t.Fatalf("trial %d, n %d: start %v count %d, want %v %d", trial, n, got.start, got.count, want.start, want.count)
		}
		a, b := storeOf(cfg, got), storeOf(cfg, want)
		ca, errA := a.Coverage("a")
		cb, errB := b.Coverage("a")
		if ca != cb || (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d, n %d: coverage %v (%v), want %v (%v)", trial, n, ca, errA, cb, errB)
		}
		for _, w := range [][2]int{{0, slots}, {n, n + slots}, {n + slots/2, n + slots}, {-slots, 2 * slots}} {
			from, to := t0.Add(time.Duration(w[0])*time.Minute), t0.Add(time.Duration(w[1])*time.Minute)
			sa, qa, errA := a.SnapshotQuality("a", from, to)
			sb, qb, errB := b.SnapshotQuality("a", from, to)
			if (errA == nil) != (errB == nil) || qa != qb || !sameValues(sa.Values, sb.Values) {
				t.Fatalf("trial %d, n %d, window %v: snapshot %v %+v (%v), want %v %+v (%v)", trial, n, w, sa.Values, qa, errA, sb.Values, qb, errB)
			}
		}
	}
}

// sameValues compares two value slices, NaN equal to NaN.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func TestAppendPastRetentionAllocs(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: time.Hour})
	i := 0
	// Warm the instance well past its retention, so every new slot
	// advances the window.
	for ; i < 200; i++ {
		must(t, st.Append("a", t0.Add(time.Duration(i)*time.Minute), float64(i)))
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := st.Append("a", t0.Add(time.Duration(i)*time.Minute), float64(i%300)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Append past retention allocates %v per reading, want 0", allocs)
	}
}
