package placement

import (
	"errors"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

func TestNewPolicyKinds(t *testing.T) {
	cases := []struct {
		cfg  PolicyConfig
		name string
	}{
		{PolicyConfig{}, "asynchrony"},
		{PolicyConfig{Kind: PolicyAsynchrony}, "asynchrony"},
		{PolicyConfig{Kind: PolicyBestFit}, "best-fit"},
		{PolicyConfig{Kind: PolicyRandom, Seed: 3}, "random"},
		{PolicyConfig{Kind: PolicyFARB}, "farb"},
		{PolicyConfig{Kind: "bogus", Custom: OnlineBestFit{}}, "best-fit"}, // Custom wins
	}
	for _, tc := range cases {
		p, err := NewPolicy(tc.cfg)
		if err != nil {
			t.Fatalf("NewPolicy(%+v): %v", tc.cfg, err)
		}
		if p.Name() != tc.name {
			t.Fatalf("NewPolicy(%+v).Name() = %q, want %q", tc.cfg, p.Name(), tc.name)
		}
	}
	if _, err := NewPolicy(PolicyConfig{Kind: "bogus"}); !errors.Is(err, ErrUnknownPolicyKind) {
		t.Fatalf("unknown kind: %v", err)
	}
	if _, err := NewPolicy(PolicyConfig{Kind: PolicyFARB, Weights: score.FARBWeights{Balance: -1}}); !errors.Is(err, score.ErrBadWeights) {
		t.Fatalf("bad weights: %v", err)
	}
	if _, err := NewOnlineWithPolicy(nil, nil, nil); !errors.Is(err, ErrNilPolicy) {
		t.Fatalf("nil policy: %v", err)
	}
	// The deprecated thin wrappers still hand back working policies.
	if NewOnlineBestFit().Name() != "best-fit" || NewOnlineAsynchrony().Name() != "asynchrony" {
		t.Fatal("deprecated constructors broken")
	}
}

// flatTrace builds a constant trace so power never discriminates between
// leaves and the capacity dimensions are what the tests exercise.
func flatTrace(watts float64) timeseries.Series {
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = watts
	}
	return timeseries.New(t0, time.Hour, vals)
}

// multiFixture builds a 1-suite/1-MSB/1-SB/2-RPP tree whose leaves carry
// net and space capacities, plus a trace table the tests extend.
func multiFixture(t *testing.T) (*powertree.Node, map[string]timeseries.Series, TraceFn) {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "m", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget:     1000,
		LeafCapacities: powertree.ResourceVector{"net": 10, "space": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[string]timeseries.Series)
	lookup := TraceFn(func(id string) (timeseries.Series, bool) {
		tr, ok := traces[id]
		return tr, ok
	})
	return tree, traces, lookup
}

func TestOnlineEnforcesCapacities(t *testing.T) {
	tree, traces, lookup := multiFixture(t)
	demands := map[string]powertree.ResourceVector{}
	demandFn := DemandFn(func(id string) (powertree.ResourceVector, bool) {
		d, ok := demands[id]
		return d, ok
	})
	o, err := NewOnline(tree, lookup, PolicyConfig{Kind: PolicyBestFit, Demands: demandFn})
	if err != nil {
		t.Fatal(err)
	}

	// Two instances of net demand 6 cannot share a 10-net leaf: they must
	// split across the two leaves even though best-fit would co-locate them
	// on power alone.
	traces["a"], traces["b"], traces["c"] = flatTrace(10), flatTrace(10), flatTrace(10)
	demands["a"] = powertree.ResourceVector{"net": 6}
	demands["b"] = powertree.ResourceVector{"net": 6}
	demands["c"] = powertree.ResourceVector{"net": 6}
	la, err := o.Admit(Instance{ID: "a", Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := o.Admit(Instance{ID: "b", Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if la == lb {
		t.Fatalf("capacity-constrained pair co-located on %q", la.Name)
	}
	if got := o.Used(tree).Get("net"); got != 12 {
		t.Fatalf("root used net = %v, want 12", got)
	}

	// A third net-6 instance fits nowhere; the rejection must not mutate
	// anything.
	if _, err := o.Admit(Instance{ID: "c", Service: "s"}); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("overcommitted admit: %v, want ErrNoCapacity", err)
	}
	if n := tree.InstanceCount(); n != 2 {
		t.Fatalf("rejected admission mutated the tree: %d instances", n)
	}
	if _, ok := o.Demand("c"); ok {
		t.Fatal("rejected admission leaked a demand record")
	}

	// Retiring one frees its leaf; c then fits there.
	freed, err := o.Retire("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Used(freed).Get("net"); got != 0 {
		t.Fatalf("freed leaf used net = %v, want 0", got)
	}
	lc, err := o.Admit(Instance{ID: "c", Service: "s"})
	if err != nil {
		t.Fatalf("admit after retire: %v", err)
	}
	if lc != freed {
		t.Fatalf("c landed on %q, want freed leaf %q", lc.Name, freed.Name)
	}

	// Inline demands on the Instance take precedence over the DemandFn.
	traces["d"] = flatTrace(10)
	demands["d"] = powertree.ResourceVector{"net": 99} // would never fit
	if _, err := o.Admit(Instance{ID: "d", Service: "s", Demands: powertree.ResourceVector{"net": 1}}); err != nil {
		t.Fatalf("inline demand override: %v", err)
	}
	if d, _ := o.Demand("d"); d.Get("net") != 1 {
		t.Fatalf("recorded demand = %v, want inline net:1", d)
	}

	// Invalid demand vectors are rejected before any placement.
	traces["e"] = flatTrace(10)
	if _, err := o.Admit(Instance{ID: "e", Demands: powertree.ResourceVector{"net": -1}}); !errors.Is(err, powertree.ErrBadDimension) {
		t.Fatalf("negative demand: %v", err)
	}
}

func TestOnlineFARBAvoidsStranding(t *testing.T) {
	tree, traces, lookup := multiFixture(t)
	leaves := tree.Leaves()
	demands := map[string]powertree.ResourceVector{
		"seed-0": {"net": 8}, // leaf 0 nearly out of net
		"arr":    {"net": 1, "space": 1},
	}
	traces["seed-0"], traces["arr"] = flatTrace(100), flatTrace(100)
	if err := leaves[0].Attach("seed-0"); err != nil {
		t.Fatal(err)
	}
	demandFn := DemandFn(func(id string) (powertree.ResourceVector, bool) {
		d, ok := demands[id]
		return d, ok
	})

	// FARB must send the arrival to leaf 1: landing on leaf 0 would leave it
	// with a severely imbalanced residual vector (power ~abundant, net ~1/10)
	// — exactly the stranded-capacity shape the balance term penalizes.
	o, err := NewOnline(tree, lookup, PolicyConfig{Kind: PolicyFARB, Demands: demandFn})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := o.Admit(Instance{ID: "arr", Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if leaf != leaves[1] {
		t.Fatalf("FARB placed arrival on %q, want the unstranded %q", leaf.Name, leaves[1].Name)
	}

	// Best-fit, blind to residual balance, co-locates with the seed (equal
	// power headroom everywhere, tie breaks to tree order = leaf 0).
	tree2, traces2, lookup2 := multiFixture(t)
	for k, v := range traces {
		traces2[k] = v
	}
	if err := tree2.Leaves()[0].Attach("seed-0"); err != nil {
		t.Fatal(err)
	}
	o2, err := NewOnline(tree2, lookup2, PolicyConfig{Kind: PolicyBestFit, Demands: demandFn})
	if err != nil {
		t.Fatal(err)
	}
	leaf2, err := o2.Admit(Instance{ID: "arr", Service: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if leaf2 != tree2.Leaves()[0] {
		t.Fatalf("best-fit baseline placed arrival on %q, expected co-location", leaf2.Name)
	}
}

func TestOnlineResyncPreservesDemands(t *testing.T) {
	tree, traces, lookup := multiFixture(t)
	leaves := tree.Leaves()
	traces["a"], traces["b"] = flatTrace(10), flatTrace(10)
	o, err := NewOnline(tree, lookup, PolicyConfig{Kind: PolicyBestFit})
	if err != nil {
		t.Fatal(err)
	}
	// Demands supplied inline (no DemandFn at all) must survive a resync.
	if _, err := o.Admit(Instance{ID: "a", Demands: powertree.ResourceVector{"net": 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Admit(Instance{ID: "b", Demands: powertree.ResourceVector{"net": 2}}); err != nil {
		t.Fatal(err)
	}
	// Move "a" to the other leaf behind the placer's back (the Remap shape).
	la, _ := o.Leaf("a")
	other := leaves[0]
	if other == la {
		other = leaves[1]
	}
	if !la.Detach("a") {
		t.Fatal("detach failed")
	}
	if err := other.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if err := o.Resync(la, other); err != nil {
		t.Fatal(err)
	}
	if d, ok := o.Demand("a"); !ok || d.Get("net") != 3 {
		t.Fatalf("demand for a after resync = %v (ok=%v), want net:3", d, ok)
	}
	if got := o.Used(other).Get("net"); got < 3 {
		t.Fatalf("used net on a's new leaf = %v, want ≥ 3", got)
	}
	if got := o.Used(tree).Get("net"); got != 5 {
		t.Fatalf("root used net after resync = %v, want 5", got)
	}
}

// TestOnlinePowerOnlyEquivalence pins the bit-exactness contract of the
// redesigned API: with the default (or explicitly power-only) PolicyConfig,
// the placer must reproduce the legacy policy-value constructors'
// leaf assignments exactly — same tree, same order, same decisions.
func TestOnlinePowerOnlyEquivalence(t *testing.T) {
	type variant struct {
		name   string
		legacy func(tree *powertree.Node, traces TraceFn) (*Online, error)
		cfg    PolicyConfig
	}
	variants := []variant{
		{"asynchrony", func(tr *powertree.Node, f TraceFn) (*Online, error) {
			return NewOnlineWithPolicy(tr, f, OnlineAsynchrony{})
		}, PolicyConfig{}},
		{"best-fit", func(tr *powertree.Node, f TraceFn) (*Online, error) {
			return NewOnlineWithPolicy(tr, f, OnlineBestFit{})
		}, PolicyConfig{Kind: PolicyBestFit}},
		{"random", func(tr *powertree.Node, f TraceFn) (*Online, error) {
			return NewOnlineWithPolicy(tr, f, NewOnlineRandom(17))
		}, PolicyConfig{Kind: PolicyRandom, Seed: 17}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			instances, traces, treeA := testFixture(t)
			_, _, treeB := testFixture(t)
			oldO, err := v.legacy(treeA, traces)
			if err != nil {
				t.Fatal(err)
			}
			newO, err := NewOnline(treeB, traces, v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range instances {
				la, errA := oldO.Admit(inst)
				lb, errB := newO.Admit(inst)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("admit %q diverged: legacy err=%v, config err=%v", inst.ID, errA, errB)
				}
				if errA != nil {
					continue
				}
				if la.Name != lb.Name {
					t.Fatalf("admit %q diverged: legacy %q, config %q", inst.ID, la.Name, lb.Name)
				}
			}
		})
	}
}

// TestRemapPolicyZeroValueEquivalence pins the Remap side of the contract:
// a RemapConfig carrying a PolicyConfig with no demand resolver (or a
// resolver that knows nothing) accepts exactly the same swaps as the
// power-only path.
func TestRemapPolicyZeroValueEquivalence(t *testing.T) {
	build := func() (*powertree.Node, TraceFn) {
		instances, traces, tree := testFixture(t)
		if err := (Random{Seed: 9}).Place(tree, instances, traces); err != nil {
			t.Fatal(err)
		}
		return tree, traces
	}
	treeA, traces := build()
	swapsA, err := Remap(treeA, traces, RemapConfig{MaxSwaps: 8})
	if err != nil {
		t.Fatal(err)
	}
	treeB, _ := build()
	emptyFn := DemandFn(func(string) (powertree.ResourceVector, bool) { return nil, false })
	swapsB, err := Remap(treeB, traces, RemapConfig{MaxSwaps: 8, Policy: PolicyConfig{Demands: emptyFn}})
	if err != nil {
		t.Fatal(err)
	}
	if len(swapsA) == 0 {
		t.Fatal("fixture produced no swaps — equivalence test is vacuous")
	}
	if len(swapsA) != len(swapsB) {
		t.Fatalf("swap counts diverged: %d vs %d", len(swapsA), len(swapsB))
	}
	for i := range swapsA {
		if swapsA[i] != swapsB[i] {
			t.Fatalf("swap %d diverged: %+v vs %+v", i, swapsA[i], swapsB[i])
		}
	}
}

// TestRemapVetoesCapacityOverflow pins the capacity guard: a swap that
// improves both differential scores is still rejected when it would
// overflow a capacity dimension at the destination leaf.
func TestRemapVetoesCapacityOverflow(t *testing.T) {
	instances, traces, tree := testFixture(t)
	if err := (Random{Seed: 9}).Place(tree, instances, traces); err != nil {
		t.Fatal(err)
	}
	// Power-only control: which instances move?
	control := tree.Clone()
	swaps, err := Remap(control, traces, RemapConfig{MaxSwaps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(swaps) != 1 {
		t.Fatalf("control produced %d swaps, want 1", len(swaps))
	}
	// Give every leaf a 1-slot "gpu" capacity and make the would-be moved
	// instance demand 1 slot while its destination leaf is already full
	// (every resident there demands a slot too — so after the exchange the
	// destination would hold 1 extra).
	for _, leaf := range tree.Leaves() {
		leaf.Capacities = powertree.ResourceVector{"gpu": float64(len(leaf.Instances))}
	}
	blockFn := DemandFn(func(id string) (powertree.ResourceVector, bool) {
		if id == swaps[0].InstanceA {
			return powertree.ResourceVector{"gpu": 2}, true // needs 2, frees only 1
		}
		return powertree.ResourceVector{"gpu": 1}, true
	})
	guarded, err := Remap(tree, traces, RemapConfig{MaxSwaps: 1, Policy: PolicyConfig{Demands: blockFn}})
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range guarded {
		if sw.InstanceA == swaps[0].InstanceA && sw.NodeB == swaps[0].NodeB {
			t.Fatalf("capacity-overflowing swap %+v was accepted", sw)
		}
	}
}
