package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/tracestore"
)

// TestPlanReplaceServiceHonoursDemands pins that what-if planning places
// against the residents' declared demands, as the runtime's own placer
// does. Two leaves each hold 10 net; service S has two residents demanding
// net 6 each, one per leaf, and a power-heavy resident without demands
// makes one leaf the tighter power fit. Best-fit re-placement of S must
// keep the second instance on its own leaf: moving it next to the first
// would need 12 of 10 net.
func TestPlanReplaceServiceHonoursDemands(t *testing.T) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget:     1000,
		LeafCapacities: powertree.ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := tracestore.New(tracestore.Config{Step: time.Hour, Retention: 4 * 7 * 24 * time.Hour})
	rt, err := NewRuntime(New(Config{TopServices: 8, Seed: 1}), store, tree,
		RuntimeConfig{Placement: placement.PolicyConfig{Kind: placement.PolicyBestFit}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)
	week := 7 * 24 * time.Hour
	watts := map[string]float64{"heavy": 300, "s-1": 50, "s-2": 50}
	for _, id := range []string{"heavy", "s-1", "s-2"} {
		for ts := start; ts.Before(start.Add(week)); ts = ts.Add(time.Hour) {
			if err := rt.Ingest(id, ts, watts[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	asOf := start.Add(week)
	if err := rt.Bootstrap([]placement.Instance{{ID: "heavy", Service: "h"}}, asOf, 1); err != nil {
		t.Fatal(err)
	}
	// Best-fit admission puts s-1 beside heavy; s-2 cannot follow (net
	// 12 > 10) and takes the other leaf.
	var leaves []string
	for _, id := range []string{"s-1", "s-2"} {
		leaf, err := rt.Admit(AdmitRequest{ID: id, Service: "S", AsOf: asOf, TrainWeeks: 1,
			Demands: powertree.ResourceVector{"net": 6}})
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
	}
	if leaves[0] == leaves[1] {
		t.Fatalf("admission co-located the net-6 pair on %q", leaves[0])
	}

	snap, err := rt.PlanSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.Evaluate(context.Background(),
		plan.Query{Kind: plan.KindReplaceService, Service: "S", Policy: "best-fit"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replaced != 2 || len(res.Unplaceable) != 0 {
		t.Fatalf("replaced %d, unplaceable %v; want 2 and none", res.Replaced, res.Unplaceable)
	}
	if res.Moved != 0 {
		t.Fatalf("plan moved %d instance(s); the net-6 pair must stay split", res.Moved)
	}
}
