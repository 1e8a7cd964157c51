package powertree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestUsageSumsAndCapacityFits: subtree sums cover every demanding instance
// below a node, a root-path Refresh after churn lands on the same ledger a
// fresh one builds, and CapacityFits applies used − out + in only to the
// dimensions a node declares.
func TestUsageSumsAndCapacityFits(t *testing.T) {
	tree, err := Build(TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	demands := map[string]ResourceVector{"a": {"net": 4}, "b": {"net": 3, "gpu": 1}}
	resolve := func(id string) (ResourceVector, bool) {
		d, ok := demands[id]
		return d, ok
	}
	leaves := tree.Leaves()
	for _, id := range []string{"a", "b", "power-only"} {
		if err := leaves[0].Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	u, err := NewUsage(tree, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.Used(tree), (ResourceVector{"net": 7, "gpu": 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("root demand = %v, want %v", got, want)
	}
	if u.Used(leaves[1]) != nil {
		t.Fatal("an empty leaf has a demand entry")
	}
	if _, ok := u.Demand("power-only"); ok {
		t.Fatal("a power-only instance has a demand on record")
	}

	leaves[0].Detach("a")
	if err := leaves[1].Attach("a"); err != nil {
		t.Fatal(err)
	}
	u.Refresh(leaves...)
	fresh, err := NewUsage(tree, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u.used, fresh.used) || !reflect.DeepEqual(u.demand, fresh.demand) {
		t.Fatalf("path refresh %v %v, fresh ledger %v %v", u.used, u.demand, fresh.used, fresh.demand)
	}

	leaf := leaves[0] // net 3 of 10 used; gpu undeclared
	if !leaf.CapacityFits(u.Used(leaf), ResourceVector{"net": 7, "gpu": 99}, nil) {
		t.Fatal("a demand that exactly fills net (gpu undeclared) was rejected")
	}
	if leaf.CapacityFits(u.Used(leaf), ResourceVector{"net": 8}, nil) {
		t.Fatal("a demand that overflows net was accepted")
	}
	if !leaf.CapacityFits(u.Used(leaf), ResourceVector{"net": 8}, ResourceVector{"net": 1}) {
		t.Fatal("swapping out 1 net did not make room for 8")
	}
	if !leaf.CapacityFits(u.Used(leaf), nil, nil) {
		t.Fatal("an empty demand must always fit")
	}
}

// TestUsageNilAndPowerOnly: a nil ledger reads as empty and fits anything,
// and a ledger over a tree where nobody declares a demand stays empty
// through churn.
func TestUsageNilAndPowerOnly(t *testing.T) {
	tree, err := Build(TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	var nilUsage *Usage
	if nilUsage.Used(tree) != nil || !nilUsage.SwapFits(leaves[0], leaves[1], ResourceVector{"net": 1}, nil) {
		t.Fatal("a nil ledger must read as empty")
	}
	if _, ok := nilUsage.Demand("x"); ok {
		t.Fatal("a nil ledger has a demand on record")
	}
	nilUsage.Refresh(leaves...)

	if err := leaves[0].Attach("x"); err != nil {
		t.Fatal(err)
	}
	u, err := NewUsage(tree, func(string) (ResourceVector, bool) { return nil, false })
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { u.Refresh(leaves...) }); allocs != 0 {
		t.Fatalf("power-only Refresh allocates %v times", allocs)
	}
	if u.Used(tree) != nil || u.used != nil || u.demand != nil {
		t.Fatalf("power-only ledger is not empty: %+v", u)
	}
}

// usageHarness drives a ledger through attach, detach and swap steps on a
// capacitated tree and checks it after every step against a fresh NewUsage
// over the same tree, and every swap-fit answer against brute force.
// Demands are multiples of 1/4, so every sum is exact and "used − out + in"
// equals the re-summed usage bit for bit.
type usageHarness struct {
	t       testing.TB
	tree    *Node
	leaves  []*Node
	ids     []string
	demands map[string]ResourceVector
	at      map[string]*Node
	u       *Usage
}

func newUsageHarness(t testing.TB, demands map[string]ResourceVector) *usageHarness {
	t.Helper()
	tree, err := Build(TopologySpec{
		Name: "u", SuitesPerDC: 1, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 4, "gpu": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tighter interior node makes ancestors bind, and a leaf without gpu
	// exercises partial declarations.
	tree.NodesAtLevel(SB)[0].Capacities["net"] = 5
	delete(tree.Leaves()[3].Capacities, "gpu")
	h := &usageHarness{t: t, tree: tree, leaves: tree.Leaves(), demands: demands, at: make(map[string]*Node)}
	for id := range demands {
		h.ids = append(h.ids, id)
	}
	sort.Strings(h.ids)
	if h.u, err = NewUsage(tree, h.resolve); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *usageHarness) resolve(id string) (ResourceVector, bool) {
	d, ok := h.demands[id]
	return d, ok
}

// placed lists, in ID order, the pool's instances that are placed (want)
// or not placed (!want).
func (h *usageHarness) placed(want bool) []string {
	var out []string
	for _, id := range h.ids {
		if _, ok := h.at[id]; ok == want {
			out = append(out, id)
		}
	}
	return out
}

// step performs one operation chosen by next (which returns values in
// [0, n)) and checks the ledger afterwards.
func (h *usageHarness) step(next func(n int) int) {
	h.t.Helper()
	switch next(3) {
	case 0: // attach
		free := h.placed(false)
		if len(free) == 0 {
			return
		}
		id, leaf := free[next(len(free))], h.leaves[next(len(h.leaves))]
		d, err := h.u.Resolve(id, nil)
		if verr := h.demands[id].Validate(); verr != nil {
			if !errors.Is(err, ErrBadDimension) && !errors.Is(err, ErrReservedPower) {
				h.t.Fatalf("Resolve(%q) of invalid %v: %v", id, h.demands[id], err)
			}
			return
		}
		if err != nil {
			h.t.Fatalf("Resolve(%q): %v", id, err)
		}
		if err := leaf.Attach(id); err != nil {
			h.t.Fatal(err)
		}
		h.at[id] = leaf
		if next(2) == 0 {
			h.u.Set(id, d)
		} else if err := h.u.Learn(leaf); err != nil {
			h.t.Fatal(err)
		}
		h.u.Refresh(leaf)
	case 1: // detach
		on := h.placed(true)
		if len(on) == 0 {
			return
		}
		id := on[next(len(on))]
		h.at[id].Detach(id)
		leaf := h.at[id]
		delete(h.at, id)
		h.u.Set(id, nil)
		h.u.Refresh(leaf)
	case 2: // swap
		on := h.placed(true)
		if len(on) < 2 {
			return
		}
		x, y := on[next(len(on))], on[next(len(on))]
		if x == y {
			return
		}
		a, b := h.at[x], h.at[y]
		da, _ := h.u.Demand(x)
		db, _ := h.u.Demand(y)
		got := h.u.SwapFits(a, b, da, db)
		h.move(x, a, b)
		h.move(y, b, a)
		after, err := NewUsage(h.tree, h.resolve)
		if err != nil {
			h.t.Fatal(err)
		}
		stop := bruteAncestor(a, b)
		want := bruteFits(a, stop, db, after) && bruteFits(b, stop, da, after)
		if got != want {
			h.t.Fatalf("SwapFits(%s@%s, %s@%s) = %v, brute force %v", x, a.Name, y, b.Name, got, want)
		}
		if !want {
			h.move(x, b, a)
			h.move(y, a, b)
		}
		h.u.Refresh(a, b)
	}
	h.check()
}

func (h *usageHarness) move(id string, from, to *Node) {
	h.t.Helper()
	if !from.Detach(id) {
		h.t.Fatalf("%q not on %q", id, from.Name)
	}
	if err := to.Attach(id); err != nil {
		h.t.Fatal(err)
	}
	h.at[id] = to
}

// check compares every node's use and every instance's record with a fresh
// ledger, bit for bit.
func (h *usageHarness) check() {
	h.t.Helper()
	fresh, err := NewUsage(h.tree, h.resolve)
	if err != nil {
		h.t.Fatal(err)
	}
	h.tree.Walk(func(n *Node) {
		if got, want := h.u.Used(n), fresh.Used(n); !bitEqual(got, want) {
			h.t.Fatalf("node %q: used %v, fresh %v", n.Name, got, want)
		}
	})
	for _, id := range h.ids {
		got, gok := h.u.Demand(id)
		want, wok := fresh.Demand(id)
		if gok != wok || !bitEqual(got, want) {
			h.t.Fatalf("instance %q: demand %v (%v), fresh %v (%v)", id, got, gok, want, wok)
		}
	}
}

func bitEqual(a, b ResourceVector) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// bruteAncestor finds the lowest common ancestor through an ancestor set.
func bruteAncestor(a, b *Node) *Node {
	anc := make(map[*Node]bool)
	for n := a; n != nil; n = n.Parent() {
		anc[n] = true
	}
	for n := b; n != nil; n = n.Parent() {
		if anc[n] {
			return n
		}
	}
	return nil
}

// bruteFits checks, from n up to but excluding stop, that the re-summed
// post-swap use stays within every declared limit of the incoming
// demand's dimensions.
func bruteFits(n, stop *Node, in ResourceVector, after *Usage) bool {
	for ; n != stop; n = n.Parent() {
		for _, dim := range in.Dimensions() {
			if limit, ok := n.Capacities[dim]; ok && after.Used(n).Get(dim) > limit {
				return false
			}
		}
	}
	return true
}

// demandShape builds one instance's demand from two choices: a shape
// (power-only, net, net+gpu, an undeclared dimension, or an invalid
// vector) and an amount in quarter units.
func demandShape(shape, amount int) ResourceVector {
	q := float64(amount%12+1) / 4
	switch shape % 6 {
	case 1:
		return ResourceVector{"net": q}
	case 2:
		return ResourceVector{"net": q / 2, "gpu": q}
	case 3:
		return ResourceVector{"disk": q}
	case 4:
		return ResourceVector{"gpu": -q}
	case 5:
		if amount%2 == 0 {
			return ResourceVector{PowerDimension: q}
		}
		return ResourceVector{"net": math.NaN()}
	}
	return nil
}

// TestUsageMatchesFresh runs seeded random attach/detach/swap sequences and
// checks the ledger after every step against a fresh NewUsage and every
// swap-fit answer against brute force.
func TestUsageMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			demands := make(map[string]ResourceVector)
			for i := 0; i < 14; i++ {
				demands[fmt.Sprintf("i%02d", i)] = demandShape(rng.Intn(6), rng.Intn(12))
			}
			h := newUsageHarness(t, demands)
			for i := 0; i < 300; i++ {
				h.step(rng.Intn)
			}
		})
	}

	// Invalid vectors fail the same way inline and through the resolver.
	tree, err := Build(TopologySpec{Name: "b", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Leaves()[0].Attach("x"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		d    ResourceVector
		want error
	}{
		{ResourceVector{"net": -1}, ErrBadDimension},
		{ResourceVector{"net": math.NaN()}, ErrBadDimension},
		{ResourceVector{"net": math.Inf(1)}, ErrBadDimension},
		{ResourceVector{"": 1}, ErrBadDimension},
		{ResourceVector{PowerDimension: 1}, ErrReservedPower},
	} {
		empty, err := NewUsage(tree, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := empty.Resolve("x", tc.d); !errors.Is(err, tc.want) {
			t.Fatalf("inline %v: %v, want %v", tc.d, err, tc.want)
		}
		d := tc.d
		if _, err := NewUsage(tree, func(string) (ResourceVector, bool) { return d, true }); !errors.Is(err, tc.want) {
			t.Fatalf("resolved %v: %v, want %v", tc.d, err, tc.want)
		}
	}
}

// FuzzUsage drives the same harness from fuzzed bytes: the first bytes pick
// the pool's demand vectors, the rest pick operations until they run out.
func FuzzUsage(f *testing.F) {
	f.Add([]byte{1, 3, 2, 5, 0, 0, 3, 7, 4, 1, 5, 2, 0, 1, 2, 0, 3, 1, 2, 2, 0, 1, 1, 2, 3, 4, 2, 0, 1, 5})
	f.Add([]byte{2, 11, 2, 11, 2, 11, 1, 11, 0, 0, 0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 1, 2, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		demands := make(map[string]ResourceVector)
		for i := 0; i < 8; i++ {
			demands[fmt.Sprintf("i%d", i)] = demandShape(next(6), next(12))
		}
		h := newUsageHarness(t, demands)
		for len(data) > 0 {
			h.step(next)
		}
	})
}
