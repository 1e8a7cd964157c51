package faults

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/detmap"
	"repro/internal/obs"
)

// refInjector is the reference injector the record-based one must match
// bit for bit: every decision re-hashes its key per call, the stuck latch
// and the reorder buffer live in per-instance maps, and transient store
// failures are asked for one append attempt at a time.
type refInjector struct {
	p        Profile
	step     time.Duration
	leafOf   map[string]string
	lastGood map[string]float64
	pending  map[string][]pendingReading
}

func newRef(p Profile, step time.Duration, leafOf map[string]string) *refInjector {
	return &refInjector{
		p: p, step: step, leafOf: leafOf,
		lastGood: make(map[string]float64),
		pending:  make(map[string][]pendingReading),
	}
}

func (f *refInjector) slotOf(at time.Time) int64 { return at.UnixNano() / int64(f.step) }

func (f *refInjector) hash(kind int, key string, n int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= uint64(f.p.Seed) + uint64(kind)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (f *refInjector) chance(kind int, key string, n int64) float64 {
	return float64(f.hash(kind, key, n)>>11) / (1 << 53)
}

func (f *refInjector) active(at time.Time) bool {
	if !f.p.ActiveFrom.IsZero() && at.Before(f.p.ActiveFrom) {
		return false
	}
	if f.p.ActiveFor > 0 && !at.Before(f.p.ActiveFrom.Add(f.p.ActiveFor)) {
		return false
	}
	return true
}

func (f *refInjector) burstHit(kind int, key string, slot int64, rate float64, burst int) bool {
	if rate <= 0 {
		return false
	}
	return f.chance(kind, key, slot/int64(burst)) < rate
}

func (f *refInjector) Skew(id string) time.Duration {
	if f.p.SkewFraction <= 0 || f.chance(kindSkew, id, 0) >= f.p.SkewFraction {
		return 0
	}
	maxSlots := int64(f.p.MaxSkew / f.step)
	if maxSlots < 1 {
		maxSlots = 1
	}
	return time.Duration(1+int64(f.hash(kindSkewAmount, id, 0)%uint64(maxSlots))) * f.step
}

func (f *refInjector) Feed(id string, at time.Time, watts float64) []Reading {
	var out []Reading
	slot := f.slotOf(at)
	if f.active(at) {
		switch {
		case f.leafOf != nil && f.burstHit(kindLeafOutage, f.leafOf[id], slot, f.p.LeafOutageRate, f.p.leafOutageBurst()):
			obsLeafOutageDrops.Inc()
		case f.burstHit(kindDropout, id, slot, f.p.DropoutRate, f.p.dropoutBurst()):
			obsDropped.Inc()
		default:
			if f.burstHit(kindStuck, id, slot, f.p.StuckRate, f.p.stuckBurst()) {
				if last, ok := f.lastGood[id]; ok {
					watts = last
					obsStuck.Inc()
				}
			} else {
				if f.chance(kindSpike, id, slot) < f.p.SpikeRate {
					watts *= f.p.spikeFactor()
					obsSpiked.Inc()
				}
				f.lastGood[id] = watts
			}
			if skew := f.Skew(id); skew != 0 {
				at = at.Add(skew)
				obsSkewed.Inc()
			}
			r := Reading{ID: id, At: at, Watts: watts}
			if f.p.ReorderFraction > 0 && f.chance(kindReorder, id, slot) < f.p.ReorderFraction {
				delay := 1 + int64(f.hash(kindReorderDelay, id, slot)%uint64(f.p.reorderDelay()))
				f.pending[id] = append(f.pending[id], pendingReading{release: slot + delay, r: r})
				obsReordered.Inc()
			} else {
				out = append(out, r)
			}
		}
	} else {
		out = append(out, Reading{ID: id, At: at, Watts: watts})
		f.lastGood[id] = watts
	}
	return f.withFailures(append(out, f.release(id, slot)...))
}

func (f *refInjector) release(id string, slot int64) []Reading {
	var out []Reading
	var rest []pendingReading
	for _, p := range f.pending[id] {
		if p.release <= slot {
			out = append(out, p.r)
		} else {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		delete(f.pending, id)
	} else {
		f.pending[id] = rest
	}
	return out
}

func (f *refInjector) Flush() []Reading {
	var out []Reading
	for _, id := range detmap.SortedKeys(f.pending) {
		for _, p := range f.pending[id] {
			out = append(out, p.r)
		}
		delete(f.pending, id)
	}
	return f.withFailures(out)
}

// TransientAppendFailure reports whether the store append for (id, at)
// fails on the given attempt, counting each failed attempt.
func (f *refInjector) TransientAppendFailure(id string, at time.Time, attempt int) bool {
	if f.p.TransientRate <= 0 || !f.active(at) {
		return false
	}
	slot := f.slotOf(at)
	if f.chance(kindTransient, id, slot) >= f.p.TransientRate {
		return false
	}
	if attempt < 1+int(f.hash(kindTransientLen, id, slot)%2) {
		obsTransient.Inc()
		return true
	}
	return false
}

// withFailures converts the per-attempt transient answers into each
// delivery's failure count, asking attempts in order as a retry loop does.
func (f *refInjector) withFailures(rs []Reading) []Reading {
	for i := range rs {
		for f.TransientAppendFailure(rs[i].ID, rs[i].At, rs[i].Failures) {
			rs[i].Failures++
		}
	}
	return rs
}

// faultCounters are every smoothop_faults_* counter the injector moves.
var faultCounters = map[string]*obs.Counter{
	"dropped": obsDropped, "leaf_outage_drops": obsLeafOutageDrops,
	"stuck": obsStuck, "spiked": obsSpiked, "skewed": obsSkewed,
	"reordered": obsReordered, "transient_errors": obsTransient,
}

func readCounters() map[string]uint64 {
	out := make(map[string]uint64, len(faultCounters))
	for name, c := range faultCounters {
		out[name] = c.Value()
	}
	return out
}

func counterDelta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// feedOp is one reading fed to an injector.
type feedOp struct {
	id    string
	at    time.Time
	watts float64
}

// interleave builds n readings per instance — each instance's slots oldest
// first, with random gaps and the odd double report of one slot — and
// merges the instance streams in random order.
func interleave(rng *rand.Rand, ids []string, n int, step time.Duration) []feedOp {
	next := make([]int, len(ids))
	left := make([]int, len(ids))
	for i := range left {
		left[i] = n
		next[i] = rng.Intn(4)
	}
	var ops []feedOp
	live := len(ids)
	for live > 0 {
		i := rng.Intn(len(ids))
		if left[i] == 0 {
			continue
		}
		ops = append(ops, feedOp{
			id:    ids[i],
			at:    epoch.Add(time.Duration(next[i]) * step),
			watts: 50 + float64(rng.Intn(200)),
		})
		next[i] += rng.Intn(3) // 0 re-reports the slot, 2 skips one
		if left[i]--; left[i] == 0 {
			live--
		}
	}
	return ops
}

// compareWithRef feeds ops through the reference and the record-based
// injector and fails on the first differing delivery, Flush output,
// skew or fault-counter delta.
func compareWithRef(t *testing.T, p Profile, step time.Duration, ops []feedOp) {
	t.Helper()
	tree := testTree(t)
	inj, err := New(p, step, tree)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(p, step, tree.InstanceLeaves())

	c0 := readCounters()
	want := make([][]Reading, len(ops))
	for i, op := range ops {
		want[i] = ref.Feed(op.id, op.at, op.watts)
	}
	wantFlush := ref.Flush()
	c1 := readCounters()
	for i, op := range ops {
		got := inj.Feed(op.id, op.at, op.watts)
		if len(got) != len(want[i]) || (len(got) > 0 && !reflect.DeepEqual(got, want[i])) {
			t.Fatalf("op %d %+v: delivered %+v, reference %+v", i, op, got, want[i])
		}
	}
	gotFlush := inj.Flush()
	c2 := readCounters()
	if !reflect.DeepEqual(gotFlush, wantFlush) {
		t.Fatalf("Flush = %+v, reference %+v", gotFlush, wantFlush)
	}
	if got, want := counterDelta(c1, c2), counterDelta(c0, c1); !reflect.DeepEqual(got, want) {
		t.Fatalf("counter deltas %v, reference %v", got, want)
	}
	for _, op := range ops {
		if got, want := inj.Skew(op.id), ref.Skew(op.id); got != want {
			t.Fatalf("Skew(%q) = %v, reference %v", op.id, got, want)
		}
	}
}

// everyFault sets every rate, burst and knob, and bounds injection to a
// window inside the replay.
func everyFault(seed int64) Profile {
	return Profile{
		Seed:        seed,
		DropoutRate: 0.1, DropoutBurst: 3,
		StuckRate: 0.1, StuckBurst: 5,
		SpikeRate: 0.1, SpikeFactor: 2.5,
		SkewFraction: 0.5, MaxSkew: 7 * time.Minute,
		ReorderFraction: 0.2, ReorderDelaySlots: 6,
		TransientRate:  0.3,
		LeafOutageRate: 0.05, LeafOutageBurst: 9,
		ActiveFrom: epoch.Add(40 * time.Minute),
		ActiveFor:  600 * time.Minute,
	}
}

func TestInjectorMatchesReference(t *testing.T) {
	// "e" is not in the tree, so its leaf key is the empty name.
	ids := []string{"a", "b", "c", "d", "e"}
	profiles := []struct {
		name string
		p    Profile
	}{
		{"light", Light(11)},
		{"heavy", Heavy(12)},
		{"every", everyFault(13)},
		// Every delivery fails transiently and many are held back, so
		// Flush hands out readings with failures too.
		{"flaky", Profile{Seed: 14, TransientRate: 1, ReorderFraction: 0.5, ReorderDelaySlots: 8, SkewFraction: 0.5, MaxSkew: 3 * time.Minute}},
	}
	for _, tc := range profiles {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				compareWithRef(t, tc.p, time.Minute, interleave(rng, ids, 800, time.Minute))
			})
		}
	}
}

func FuzzInjector(f *testing.F) {
	f.Add(int64(1), []byte{25, 0, 10, 0, 3, 0, 40, 3, 30, 0, 60, 10, 0, 0, 0}, []byte{0, 100, 9, 120, 17, 80, 2, 90, 11, 70})
	f.Add(int64(-7), []byte{255, 2, 255, 1, 255, 5, 255, 5, 255, 5, 255, 255, 3, 20, 30}, []byte{4, 1, 3, 2, 2, 3, 1, 4, 0, 5, 8, 6})
	f.Fuzz(func(t *testing.T, seed int64, knobs, ops []byte) {
		k := func(i int) int {
			if i < len(knobs) {
				return int(knobs[i])
			}
			return 0
		}
		rate := func(i int) float64 { return float64(k(i)) / 255 }
		p := Profile{
			Seed:        seed,
			DropoutRate: rate(0), DropoutBurst: k(1) % 10,
			StuckRate: rate(2), StuckBurst: k(3) % 10,
			SpikeRate: rate(4), SpikeFactor: float64(k(5) % 8),
			SkewFraction: rate(6), MaxSkew: time.Duration(k(7)%6) * time.Minute,
			ReorderFraction: rate(8), ReorderDelaySlots: k(9) % 6,
			TransientRate:  rate(10),
			LeafOutageRate: rate(11), LeafOutageBurst: k(12) % 40,
		}
		if k(13) > 0 {
			p.ActiveFrom = epoch.Add(time.Duration(k(13)) * time.Minute)
			p.ActiveFor = time.Duration(k(14)) * time.Minute
		}
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		ids := []string{"a", "b", "c", "d", "e"}
		next := make([]int, len(ids))
		var feed []feedOp
		for i := 0; i+1 < len(ops); i += 2 {
			who := int(ops[i]) % len(ids)
			feed = append(feed, feedOp{
				id:    ids[who],
				at:    epoch.Add(time.Duration(next[who]) * time.Minute),
				watts: float64(ops[i+1]),
			})
			next[who] += int(ops[i]>>3) % 4
		}
		compareWithRef(t, p, time.Minute, feed)
	})
}

func TestFeedSteadyStateAllocs(t *testing.T) {
	const step = 30 * time.Minute
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	for _, tc := range []struct {
		name string
		p    Profile
	}{{"light", Light(1)}, {"heavy", Heavy(1)}} {
		inj, err := New(tc.p, step, testTree(t))
		if err != nil {
			t.Fatal(err)
		}
		// Warm up: every id's record exists and its reorder buffer and the
		// delivery buffer have grown to their working size.
		slot := 0
		for ; slot < 2*7*48; slot++ {
			for _, id := range ids {
				inj.Feed(id, epoch.Add(time.Duration(slot)*step), 100)
			}
		}
		// One run feeds every id one slot: AllocsPerRun floors its mean, so
		// a per-reading allocation must count whole per run to show.
		allocs := testing.AllocsPerRun(200, func() {
			for _, id := range ids {
				inj.Feed(id, epoch.Add(time.Duration(slot)*step), 100)
			}
			slot++
		})
		if allocs != 0 {
			t.Errorf("%s: Feed allocates %v per steady-state slot of %d readings, want 0", tc.name, allocs, len(ids))
		}
	}
}
