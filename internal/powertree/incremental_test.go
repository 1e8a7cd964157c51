package powertree

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// requireSameAggs fails unless got and want agree bit-for-bit — trace
// values, peaks, and missing lists — on every node of the tree.
func requireSameAggs(t *testing.T, tree *Node, got, want *Aggregates, ctx string) {
	t.Helper()
	tree.Walk(func(nd *Node) {
		gs, gok := got.Trace(nd)
		ws, wok := want.Trace(nd)
		if gok != wok {
			t.Fatalf("%s: presence mismatch at %s: %v vs %v", ctx, nd.Name, gok, wok)
		}
		if len(gs.Values) != len(ws.Values) {
			t.Fatalf("%s: length mismatch at %s: %d vs %d", ctx, nd.Name, len(gs.Values), len(ws.Values))
		}
		for i := range ws.Values {
			if gs.Values[i] != ws.Values[i] {
				t.Fatalf("%s: trace differs at %s index %d: %v vs %v", ctx, nd.Name, i, gs.Values[i], ws.Values[i])
			}
		}
		if got.Peak(nd) != want.Peak(nd) {
			t.Fatalf("%s: peak differs at %s: %v vs %v", ctx, nd.Name, got.Peak(nd), want.Peak(nd))
		}
		gm, wm := got.Missing(nd), want.Missing(nd)
		if len(gm) != len(wm) {
			t.Fatalf("%s: missing count differs at %s: %v vs %v", ctx, nd.Name, gm, wm)
		}
		for i := range wm {
			if gm[i] != wm[i] {
				t.Fatalf("%s: missing order differs at %s: %v vs %v", ctx, nd.Name, gm, wm)
			}
		}
	})
}

// TestAggregatorUpdateMatchesFresh: after any sequence of admit / retire /
// swap / trace-change events with the touched leaves marked dirty, Update
// must be bit-identical to a fresh AggregateAll over the same tree and
// traces — the tentpole determinism contract — at workers 1 and 8.
func TestAggregatorUpdateMatchesFresh(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	for _, workers := range []int{1, 8} {
		for trial := 0; trial < 25; trial++ {
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			tree := randomTree(rng)
			leaves := tree.Leaves()
			n := rng.Intn(30) + 2
			traces := make(map[string]timeseries.Series)
			newTrace := func() timeseries.Series {
				s := timeseries.Zeros(base, time.Minute, n)
				for j := range s.Values {
					s.Values[j] = rng.Float64() * 100
				}
				return s
			}
			instID := 0
			var placed []string        // ids currently attached somewhere
			home := map[string]*Node{} // id → hosting leaf
			for _, leaf := range leaves {
				for k := rng.Intn(3); k > 0; k-- {
					id := fmt.Sprintf("i%d", instID)
					instID++
					if err := leaf.Attach(id); err != nil {
						t.Fatal(err)
					}
					if rng.Float64() > 0.1 { // some stay untraced → Missing
						traces[id] = newTrace()
					}
					placed = append(placed, id)
					home[id] = leaf
				}
			}
			pf := func(id string) (timeseries.Series, bool) {
				s, ok := traces[id]
				return s, ok
			}

			agg, err := NewAggregatorParallel(tree, pf, workers)
			if err != nil {
				t.Fatal(err)
			}

			for step := 0; step < 8; step++ {
				// Apply a random batch of churn events, marking each touched
				// leaf dirty as a caller would.
				for ev := rng.Intn(4) + 1; ev > 0; ev-- {
					switch k := rng.Intn(4); {
					case k == 0: // admit
						id := fmt.Sprintf("i%d", instID)
						instID++
						leaf := leaves[rng.Intn(len(leaves))]
						if err := leaf.Attach(id); err != nil {
							t.Fatal(err)
						}
						if rng.Float64() > 0.1 {
							traces[id] = newTrace()
						}
						placed = append(placed, id)
						home[id] = leaf
						if err := agg.MarkDirty(leaf); err != nil {
							t.Fatal(err)
						}
					case k == 1 && len(placed) > 0: // retire
						i := rng.Intn(len(placed))
						id := placed[i]
						leaf := home[id]
						if !leaf.Detach(id) {
							t.Fatalf("trial %d: %s not on its home leaf", trial, id)
						}
						placed = append(placed[:i], placed[i+1:]...)
						delete(home, id)
						if err := agg.MarkDirty(leaf); err != nil {
							t.Fatal(err)
						}
					case k == 2 && len(placed) > 0: // swap to another leaf
						id := placed[rng.Intn(len(placed))]
						from, to := home[id], leaves[rng.Intn(len(leaves))]
						from.Detach(id)
						if err := to.Attach(id); err != nil {
							t.Fatal(err)
						}
						home[id] = to
						if err := agg.MarkDirty(from, to); err != nil {
							t.Fatal(err)
						}
					case k == 3 && len(placed) > 0: // trace change in place
						id := placed[rng.Intn(len(placed))]
						traces[id] = newTrace()
						if err := agg.MarkDirty(home[id]); err != nil {
							t.Fatal(err)
						}
					}
				}

				got, err := agg.UpdateParallel(workers)
				if err != nil {
					t.Fatal(err)
				}
				if agg.DirtyCount() != 0 {
					t.Fatalf("trial %d step %d: dirty set not cleared", trial, step)
				}
				want, err := tree.AggregateAllParallel(pf, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireSameAggs(t, tree, got, want,
					fmt.Sprintf("workers %d trial %d step %d", workers, trial, step))
			}
		}
	}
}

// TestAggregatorEmptyDirtyNoop: Update with nothing marked dirty must return
// the cached snapshot itself — same pointer, no recompute.
func TestAggregatorEmptyDirtyNoop(t *testing.T) {
	tree, pf := smallTree(t)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	before := agg.Snapshot()
	got, err := agg.Update()
	if err != nil {
		t.Fatal(err)
	}
	if got != before {
		t.Fatal("no-op Update returned a new snapshot")
	}
	if got != agg.Snapshot() {
		t.Fatal("no-op Update replaced the cached snapshot")
	}
}

// smallTree builds a fixed 2×1×1×2 tree with two traced instances per leaf.
func smallTree(t *testing.T) (*Node, PowerFn) {
	t.Helper()
	tree, err := Build(TopologySpec{
		Name: "t", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(99))
	traces := make(map[string]timeseries.Series)
	for li, leaf := range tree.Leaves() {
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("i%d-%d", li, k)
			s := timeseries.Zeros(base, time.Minute, 16)
			for j := range s.Values {
				s.Values[j] = rng.Float64() * 100
			}
			traces[id] = s
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	}
}

// TestAggregatorMarkDirtyValidation: interior nodes, nil, and leaves of a
// different tree are rejected with the named errors, and a failed call
// records none of its marks.
func TestAggregatorMarkDirtyValidation(t *testing.T) {
	tree, pf := smallTree(t)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.MarkDirty(tree); !errors.Is(err, ErrNotALeaf) {
		t.Fatalf("interior node: got %v, want ErrNotALeaf", err)
	}
	if err := agg.MarkDirty(nil); !errors.Is(err, ErrForeignLeaf) {
		t.Fatalf("nil node: got %v, want ErrForeignLeaf", err)
	}
	other, _ := Build(TopologySpec{Name: "o", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1, LeafBudget: 1})
	if err := agg.MarkDirty(other.Leaves()[0]); !errors.Is(err, ErrForeignLeaf) {
		t.Fatalf("foreign leaf: got %v, want ErrForeignLeaf", err)
	}
	// A batch with one bad target must record nothing.
	if err := agg.MarkDirty(tree.Leaves()[0], nil); err == nil {
		t.Fatal("batch with nil target accepted")
	}
	if agg.DirtyCount() != 0 {
		t.Fatalf("failed MarkDirty left %d marks", agg.DirtyCount())
	}
}

// TestAggregatorInvalidateTopology: after a structural mutation and
// InvalidateTopology, Update rebuilds from scratch with a fresh index that
// covers the new leaf, and MarkDirty accepts the new leaf while stale.
func TestAggregatorInvalidateTopology(t *testing.T) {
	tree, pf := smallTree(t)
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	oldLeafCount := len(agg.Snapshot().Leaves())

	// Grow the tree: a new RPP under the first SB.
	sb := tree.NodesAtLevel(SB)[0]
	newLeaf := &Node{Name: sb.Name + "/rX", Level: RPP, Budget: 1000, parent: sb}
	sb.Children = append(sb.Children, newLeaf)
	agg.InvalidateTopology()

	// While stale, marks validate by parent chain, so the new leaf is legal.
	if err := agg.MarkDirty(newLeaf); err != nil {
		t.Fatalf("MarkDirty(new leaf) while stale: %v", err)
	}
	got, err := agg.Update()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Leaves()) != oldLeafCount+1 {
		t.Fatalf("rebuilt index has %d leaves, want %d", len(got.Leaves()), oldLeafCount+1)
	}
	want, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAggs(t, tree, got, want, "post-invalidate rebuild")
	// The rebuild consumed the dirty set; the next Update is a no-op.
	if snap, err := agg.Update(); err != nil || snap != got {
		t.Fatalf("post-rebuild Update not a no-op: %v", err)
	}
}

// TestAggregatorUpdateErrorKeepsState: a fold error (length-mismatched
// traces) must leave the snapshot and dirty set untouched so the caller can
// repair the traces and retry the same Update.
func TestAggregatorUpdateErrorKeepsState(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	tree, err := Build(TopologySpec{Name: "e", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves()[0]
	traces := map[string]timeseries.Series{
		"a": timeseries.Zeros(base, time.Minute, 8),
		"b": timeseries.Zeros(base, time.Minute, 8),
	}
	for _, id := range []string{"a", "b"} {
		if err := leaf.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	pf := func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	}
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}
	before := agg.Snapshot()

	traces["b"] = timeseries.Zeros(base, time.Minute, 9) // length mismatch
	if err := agg.MarkDirty(leaf); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Update(); err == nil {
		t.Fatal("Update over mismatched traces succeeded")
	}
	if agg.Snapshot() != before {
		t.Fatal("failed Update replaced the snapshot")
	}
	if agg.DirtyCount() != 1 {
		t.Fatalf("failed Update dropped dirty marks: %d left", agg.DirtyCount())
	}

	traces["b"] = timeseries.Zeros(base, time.Minute, 8) // repaired
	got, err := agg.Update()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAggs(t, tree, got, want, "retry after repair")
}

// TestAggregatorConcurrentReads: Snapshot readers racing a churn loop of
// MarkDirty+Update must always observe a complete, internally consistent
// snapshot (exercised under -race in make check).
func TestAggregatorConcurrentReads(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	tree, err := Build(TopologySpec{Name: "c", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1000})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	var tracesMu sync.RWMutex
	traces := make(map[string]timeseries.Series)
	rng := rand.New(rand.NewSource(7))
	for li, leaf := range leaves {
		for k := 0; k < 2; k++ {
			id := fmt.Sprintf("i%d-%d", li, k)
			s := timeseries.Zeros(base, time.Minute, 24)
			for j := range s.Values {
				s.Values[j] = rng.Float64() * 100
			}
			traces[id] = s
			if err := leaf.Attach(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	pf := func(id string) (timeseries.Series, bool) {
		tracesMu.RLock()
		defer tracesMu.RUnlock()
		s, ok := traces[id]
		return s, ok
	}
	agg, err := NewAggregator(tree, pf)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := agg.Snapshot()
				var total float64
				for _, level := range Levels {
					total += snap.SumOfPeaks(level)
				}
				if total < 0 {
					panic("negative sum of peaks")
				}
				for _, leaf := range snap.Leaves() {
					snap.Trace(leaf)
				}
			}
		}()
	}

	churn := rand.New(rand.NewSource(8))
	for step := 0; step < 200; step++ {
		leaf := leaves[churn.Intn(len(leaves))]
		id := leaf.Instances[churn.Intn(len(leaf.Instances))]
		s := timeseries.Zeros(base, time.Minute, 24)
		for j := range s.Values {
			s.Values[j] = churn.Float64() * 100
		}
		tracesMu.Lock()
		traces[id] = s
		tracesMu.Unlock()
		if err := agg.MarkDirty(leaf); err != nil {
			t.Fatal(err)
		}
		if _, err := agg.UpdateParallel(4); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	got := agg.Snapshot()
	want, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAggs(t, tree, got, want, "after concurrent churn")
}

// TestAggregatesCachedWalks: the snapshot's cached Leaves/NodesAtLevel must
// list exactly the nodes a fresh tree walk finds, in the same order.
func TestAggregatesCachedWalks(t *testing.T) {
	tree, pf := smallTree(t)
	aggs, err := tree.AggregateAll(pf)
	if err != nil {
		t.Fatal(err)
	}
	wantLeaves := tree.Leaves()
	gotLeaves := aggs.Leaves()
	if len(gotLeaves) != len(wantLeaves) {
		t.Fatalf("Leaves: %d vs %d", len(gotLeaves), len(wantLeaves))
	}
	for i := range wantLeaves {
		if gotLeaves[i] != wantLeaves[i] {
			t.Fatalf("Leaves order differs at %d", i)
		}
	}
	for _, level := range Levels {
		want := tree.NodesAtLevel(level)
		got := aggs.NodesAtLevel(level)
		if len(got) != len(want) {
			t.Fatalf("NodesAtLevel(%s): %d vs %d", level, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NodesAtLevel(%s) order differs at %d", level, i)
			}
		}
	}
	// Cached: repeated calls return the same backing slice, not a re-walk.
	if len(aggs.Leaves()) > 0 && &aggs.Leaves()[0] != &gotLeaves[0] {
		t.Fatal("Leaves() re-allocated on second call")
	}
}
