package placement

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// mustPolicy builds the policy cfg describes, failing the test on error.
func mustPolicy(t testing.TB, cfg PolicyConfig) Policy {
	t.Helper()
	p, err := NewPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// onlinePolicies returns a fresh instance of every power-only online policy
// (random policies carry a decision stream, so tests must not share them
// between runs).
func onlinePolicies(t *testing.T) []OnlinePolicy {
	return []OnlinePolicy{
		mustPolicy(t, PolicyConfig{Kind: PolicyRandom, Seed: 7}),
		mustPolicy(t, PolicyConfig{Kind: PolicyBestFit}),
		mustPolicy(t, PolicyConfig{}),
	}
}

func TestOnlineAdmitsWholeFleet(t *testing.T) {
	for _, policy := range onlinePolicies(t) {
		t.Run(policy.Name(), func(t *testing.T) {
			instances, traces, tree := testFixture(t)
			o, err := NewOnline(tree, traces, PolicyConfig{Custom: policy})
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range instances {
				leaf, err := o.Admit(inst)
				if err != nil {
					t.Fatalf("admit %q: %v", inst.ID, err)
				}
				if leaf == nil || !leaf.IsLeaf() {
					t.Fatalf("admit %q returned %v", inst.ID, leaf)
				}
			}
			if err := Verify(tree, instances); err != nil {
				t.Fatal(err)
			}
			// No breaker may be violated anywhere in the tree.
			aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
			if err != nil {
				t.Fatal(err)
			}
			tree.Walk(func(n *powertree.Node) {
				if p := aggs.Peak(n); p > n.Budget {
					t.Errorf("node %q peak %.1f exceeds budget %.1f", n.Name, p, n.Budget)
				}
			})
			// The placer's incremental aggregates must agree with a fresh
			// bottom-up aggregation (tiny float slack: the incremental path
			// folds arrivals in admission order).
			tree.Walk(func(n *powertree.Node) {
				got := o.Aggregate(n).Peak()
				want := aggs.Peak(n)
				if math.Abs(got-want) > 1e-6*math.Max(1, want) {
					t.Errorf("node %q incremental peak %.9f, fresh %.9f", n.Name, got, want)
				}
			})
		})
	}
}

func TestOnlineStartsFromPopulatedTree(t *testing.T) {
	instances, traces, tree := testFixture(t)
	half := len(instances) / 2
	if err := (Random{Seed: 3}).Place(tree, instances[:half], traces); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances[half:] {
		if _, err := o.Admit(inst); err != nil {
			t.Fatalf("admit %q onto populated tree: %v", inst.ID, err)
		}
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineRejectsWhenFull(t *testing.T) {
	instances, traces, tree := testFixture(t)
	// Budgets far below one instance's peak: nothing fits anywhere.
	tree.Walk(func(n *powertree.Node) { n.Budget = 1 })
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(instances[0]); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("admit into zero-capacity tree: %v, want ErrNoCapacity", err)
	}
	if tree.InstanceCount() != 0 {
		t.Fatal("rejected admission mutated the tree")
	}
}

func TestOnlineRetireAndReadmit(t *testing.T) {
	instances, traces, tree := testFixture(t)
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range instances {
		if _, err := o.Admit(inst); err != nil {
			t.Fatal(err)
		}
	}
	victim := instances[3]
	leaf, err := o.Retire(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range leaf.Instances {
		if id == victim.ID {
			t.Fatalf("retired %q still attached to %q", victim.ID, leaf.Name)
		}
	}
	if n := tree.InstanceCount(); n != len(instances)-1 {
		t.Fatalf("after retire: %d instances, want %d", n, len(instances)-1)
	}
	if _, err := o.Retire(victim.ID); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("double retire: %v, want ErrUnknownInstance", err)
	}
	if _, err := o.Retire("no-such-instance"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("retire unknown: %v, want ErrUnknownInstance", err)
	}
	if _, err := o.Admit(victim); err != nil {
		t.Fatalf("re-admit after retire: %v", err)
	}
	if err := Verify(tree, instances); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineRejectsDoubleAdmit(t *testing.T) {
	instances, traces, tree := testFixture(t)
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(instances[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(instances[0]); !errors.Is(err, ErrAlreadyAdmitted) {
		t.Fatalf("double admit: %v, want ErrAlreadyAdmitted", err)
	}
}

func TestOnlineMissingTrace(t *testing.T) {
	instances, traces, tree := testFixture(t)
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(Instance{ID: "ghost", Service: "x"}); !errors.Is(err, ErrMissingTrace) {
		t.Fatalf("admit without trace: %v, want ErrMissingTrace", err)
	}
	_ = instances
}

func TestOnlineDeterministicReplay(t *testing.T) {
	for _, mk := range []func() OnlinePolicy{
		func() OnlinePolicy { return mustPolicy(t, PolicyConfig{Kind: PolicyRandom, Seed: 11}) },
		func() OnlinePolicy { return mustPolicy(t, PolicyConfig{Kind: PolicyBestFit}) },
		func() OnlinePolicy { return mustPolicy(t, PolicyConfig{}) },
	} {
		run := func() map[string]string {
			instances, traces, tree := testFixture(t)
			o, err := NewOnline(tree, traces, PolicyConfig{Custom: mk()})
			if err != nil {
				t.Fatal(err)
			}
			placedAt := make(map[string]string, len(instances))
			for _, inst := range instances {
				leaf, err := o.Admit(inst)
				if err != nil {
					t.Fatal(err)
				}
				placedAt[inst.ID] = leaf.Name
			}
			return placedAt
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("replay sizes differ: %d vs %d", len(a), len(b))
		}
		for id, leaf := range a {
			if b[id] != leaf {
				t.Fatalf("replay diverged for %q: %q vs %q", id, leaf, b[id])
			}
		}
	}
}

// TestOnlineAsynchronySpreadsSynchronousPairs pins the policy's core
// behaviour on a hand-built case: two perfectly synchronous instances must
// land on different leaves while a counter-phased third co-locates.
func TestOnlineAsynchronySpreadsSynchronousPairs(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "m", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	day := make([]float64, 24)
	night := make([]float64, 24)
	for i := range day {
		day[i], night[i] = 10, 10
		if i >= 9 && i < 17 {
			day[i] = 100
		} else {
			night[i] = 100
		}
	}
	mk := func(vals []float64) timeseries.Series {
		return timeseries.New(t0, time.Hour, vals)
	}
	traces := map[string]timeseries.Series{
		"day-0":   mk(day),
		"day-1":   mk(day),
		"night-0": mk(night),
	}
	lookup := TraceFn(func(id string) (timeseries.Series, bool) {
		tr, ok := traces[id]
		return tr, ok
	})
	o, err := NewOnline(tree, lookup, PolicyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l0, err := o.Admit(Instance{ID: "day-0", Service: "day"})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := o.Admit(Instance{ID: "day-1", Service: "day"})
	if err != nil {
		t.Fatal(err)
	}
	if l0 == l1 {
		t.Fatalf("synchronous pair co-located on %q", l0.Name)
	}
	l2, err := o.Admit(Instance{ID: "night-0", Service: "night"})
	if err != nil {
		t.Fatal(err)
	}
	// The counter-phased arrival must join one of the day instances (both
	// leaves host exactly one day instance, so any choice co-locates).
	if len(l2.Instances) != 2 {
		t.Fatalf("counter-phased arrival got its own leaf: %v", l2.Instances)
	}
}

// TestOnlineResync: after instances are moved between leaves behind the
// placer's back (the Remap tick), Resync on the touched leaves must bring
// leaf lookups and path aggregates back in line with a fresh bottom-up
// aggregation — without rebuilding the untouched leaves.
func TestOnlineResync(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 5}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	o, err := NewOnline(tree, traces, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}

	// Find two leaves with residents and swap their first instances, the way
	// Remap mutates the tree directly.
	var withResidents []*powertree.Node
	for _, leaf := range tree.Leaves() {
		if len(leaf.Instances) > 0 {
			withResidents = append(withResidents, leaf)
		}
	}
	if len(withResidents) < 2 {
		t.Fatal("fixture placed fewer than two occupied leaves")
	}
	la, lb := withResidents[0], withResidents[1]
	ia, ib := la.Instances[0], lb.Instances[0]
	if !la.Detach(ia) || !lb.Detach(ib) {
		t.Fatal("detach failed")
	}
	if err := la.Attach(ib); err != nil {
		t.Fatal(err)
	}
	if err := lb.Attach(ia); err != nil {
		t.Fatal(err)
	}

	if err := o.Resync(la, lb); err != nil {
		t.Fatal(err)
	}
	if leaf, ok := o.Leaf(ia); !ok || leaf != lb {
		t.Fatalf("after resync, %q maps to %v, want %q", ia, leaf, lb.Name)
	}
	if leaf, ok := o.Leaf(ib); !ok || leaf != la {
		t.Fatalf("after resync, %q maps to %v, want %q", ib, leaf, la.Name)
	}
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		t.Fatal(err)
	}
	tree.Walk(func(n *powertree.Node) {
		got, want := o.Aggregate(n).Peak(), aggs.Peak(n)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("node %q resynced peak %.9f, fresh %.9f", n.Name, got, want)
		}
	})

	// The placer stays fully operational: retire a moved instance, readmit.
	if leaf, err := o.Retire(ia); err != nil || leaf != lb {
		t.Fatalf("retire moved instance: leaf=%v err=%v", leaf, err)
	}
	if _, err := o.Admit(Instance{ID: ia}); err != nil {
		t.Fatalf("readmit after resync: %v", err)
	}

	// Resyncing an untouched leaf is an idempotent no-op.
	if err := o.Resync(withResidents[len(withResidents)-1]); err != nil {
		t.Fatal(err)
	}

	// Foreign or interior nodes are rejected before any state changes.
	other, err := powertree.Build(powertree.TopologySpec{
		Name: "other", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Resync(other.Leaves()[0]); err == nil {
		t.Fatal("resync accepted a foreign leaf")
	}
	if err := o.Resync(tree); err == nil {
		t.Fatal("resync accepted an interior node")
	}
	if err := o.Resync(nil); err == nil {
		t.Fatal("resync accepted nil")
	}
}

// TestOnlineSnapshotBitIdentical: after a seeded interleaving of
// admissions, retirements and external swaps absorbed by Resync, the
// placer's maintained aggregates must equal a fresh AggregateAll bit for bit
// on every node, at any worker count.
func TestOnlineSnapshotBitIdentical(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		t.Run("workers="+workers, func(t *testing.T) {
			t.Setenv(parallel.EnvWorkers, workers)
			instances, traces, tree := testFixture(t)
			o, err := NewOnline(tree, traces, PolicyConfig{})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			pending := append([]Instance(nil), instances...)
			var live []Instance
			for step := 0; step < 300; step++ {
				if len(pending) > 0 && (len(live) == 0 || rng.Intn(3) > 0) {
					i := rng.Intn(len(pending))
					inst := pending[i]
					pending = append(pending[:i], pending[i+1:]...)
					if _, err := o.Admit(inst); err != nil {
						t.Fatalf("step %d: admit %q: %v", step, inst.ID, err)
					}
					live = append(live, inst)
				} else {
					i := rng.Intn(len(live))
					inst := live[i]
					live = append(live[:i], live[i+1:]...)
					if _, err := o.Retire(inst.ID); err != nil {
						t.Fatalf("step %d: retire %q: %v", step, inst.ID, err)
					}
					pending = append(pending, inst)
				}
				if step%20 == 19 {
					swapAndResync(t, o, tree, rng)
				}
				assertSnapshotMatchesFresh(t, o, tree, traces, step)
			}
		})
	}
}

// swapAndResync exchanges the first residents of two random occupied leaves
// behind the placer's back, the way a Remap tick does, then resyncs them.
func swapAndResync(t *testing.T, o *Online, tree *powertree.Node, rng *rand.Rand) {
	t.Helper()
	var occupied []*powertree.Node
	for _, leaf := range tree.Leaves() {
		if len(leaf.Instances) > 0 {
			occupied = append(occupied, leaf)
		}
	}
	if len(occupied) < 2 {
		return
	}
	i := rng.Intn(len(occupied))
	j := (i + 1 + rng.Intn(len(occupied)-1)) % len(occupied)
	la, lb := occupied[i], occupied[j]
	ia, ib := la.Instances[0], lb.Instances[0]
	if !la.Detach(ia) || !lb.Detach(ib) {
		t.Fatal("detach failed")
	}
	if err := la.Attach(ib); err != nil {
		t.Fatal(err)
	}
	if err := lb.Attach(ia); err != nil {
		t.Fatal(err)
	}
	if err := o.Resync(la, lb); err != nil {
		t.Fatal(err)
	}
}

func assertSnapshotMatchesFresh(t *testing.T, o *Online, tree *powertree.Node, traces TraceFn, step int) {
	t.Helper()
	fresh, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Snapshot()
	tree.Walk(func(n *powertree.Node) {
		got, gotOK := snap.Trace(n)
		want, wantOK := fresh.Trace(n)
		if gotOK != wantOK || got.Len() != want.Len() {
			t.Fatalf("step %d: node %q: maintained (%v, %d samples) vs fresh (%v, %d samples)",
				step, n.Name, gotOK, got.Len(), wantOK, want.Len())
		}
		for i, v := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
				t.Fatalf("step %d: node %q sample %d: maintained %v, fresh %v", step, n.Name, i, got.Values[i], v)
			}
		}
		if math.Float64bits(snap.Peak(n)) != math.Float64bits(fresh.Peak(n)) {
			t.Fatalf("step %d: node %q peak: maintained %v, fresh %v", step, n.Name, snap.Peak(n), fresh.Peak(n))
		}
	})
}
