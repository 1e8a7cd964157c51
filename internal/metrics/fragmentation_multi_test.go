package metrics

import (
	"errors"
	"testing"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// multiFragTree builds a 1-suite/1-MSB/2-SB/2-RPP tree whose leaves declare
// net and space capacities (derived upward by Build).
func multiFragTree(t *testing.T, leafBudget float64) *powertree.Node {
	t.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "f", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget:     leafBudget,
		LeafCapacities: powertree.ResourceVector{"net": 10, "space": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func demandTable(d map[string]powertree.ResourceVector) func(string) (powertree.ResourceVector, bool) {
	return func(id string) (powertree.ResourceVector, bool) {
		v, ok := d[id]
		return v, ok
	}
}

func TestMultiFragmentationRates(t *testing.T) {
	traces := map[string]timeseries.Series{
		"a": fragSeries(50, 50), "b": fragSeries(50, 50),
	}
	demands := map[string]powertree.ResourceVector{
		"a": {"net": 8},
		"b": {"net": 8},
	}
	tree := multiFragTree(t, 200)
	leaves := tree.Leaves()
	// Both net-heavy instances on the two leaves of SB 0: its 20 net is 16
	// used; SB 1's 20 net is untouched.
	if err := leaves[0].Attach("a"); err != nil {
		t.Fatal(err)
	}
	if err := leaves[1].Attach("b"); err != nil {
		t.Fatal(err)
	}
	rows, err := MultiFragmentationRates(tree, fragLookup(traces), demandTable(demands))
	if err != nil {
		t.Fatal(err)
	}

	// Power rows come first and match the single-dimension report exactly.
	powerRows, err := FragmentationRates(tree, fragLookup(traces))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range powerRows {
		if rows[i] != want {
			t.Fatalf("power row %d = %+v, want %+v", i, rows[i], want)
		}
		if rows[i].Dimension != powertree.PowerDimension {
			t.Fatalf("power row %d dimension = %q", i, rows[i].Dimension)
		}
	}

	byKey := make(map[string]FragmentationRow)
	for _, row := range rows[len(powerRows):] {
		byKey[row.Level.String()+"/"+row.Dimension] = row
		if row.Dimension == powertree.PowerDimension {
			t.Fatalf("dimension rows must not repeat power: %+v", row)
		}
	}
	// net at the DC root: capacity 40, used 16 → headroom 24. Admissible is
	// also 24 (each leaf's free net is reachable: 2+2+10+10), so nothing is
	// stranded at any level for net.
	root := byKey["DC/net"]
	if root.Capacity != 40 || root.Headroom != 24 || root.StrandedWatts != 0 {
		t.Fatalf("dc/net row = %+v", root)
	}
	// space is untouched everywhere: headroom = capacity, stranded 0.
	if row := byKey["DC/space"]; row.Headroom != 16 || row.StrandedWatts != 0 {
		t.Fatalf("dc/space row = %+v", row)
	}
	// Dimension order is ascending: net rows before space rows.
	if rows[len(powerRows)].Dimension != "net" {
		t.Fatalf("first dimension row = %+v, want net", rows[len(powerRows)])
	}
}

// TestMultiFragmentationStrandedByAncestor pins the bottom-up rule: leaf
// headroom walled off behind an exhausted ancestor capacity is stranded.
func TestMultiFragmentationStrandedByAncestor(t *testing.T) {
	traces := map[string]timeseries.Series{"a": fragSeries(10, 10)}
	tree := multiFragTree(t, 200)
	// Cap the first SB's net at exactly its current usage: its two leaves
	// still advertise free net that nothing can reach through the SB.
	var sb *powertree.Node
	tree.Walk(func(n *powertree.Node) {
		if n.Level == powertree.SB && sb == nil {
			sb = n
		}
	})
	sb.Capacities["net"] = 4
	demands := map[string]powertree.ResourceVector{"a": {"net": 4}}
	if err := tree.Leaves()[0].Attach("a"); err != nil {
		t.Fatal(err)
	}
	rows, err := MultiFragmentationRates(tree, fragLookup(traces), demandTable(demands))
	if err != nil {
		t.Fatal(err)
	}
	var sbRow FragmentationRow
	for _, row := range rows {
		if row.Level == powertree.SB && row.Dimension == "net" {
			sbRow = row
		}
	}
	// SB level net: capacities 4 + 20, used 4 → headroom 0 + 20 = 20, and
	// admissible matches (capped SB admits 0, the other 20), so the SB level
	// itself strands nothing.
	if sbRow.Capacity != 24 || sbRow.Headroom != 20 || sbRow.StrandedWatts != 0 {
		t.Fatalf("sb/net row = %+v", sbRow)
	}
	// The DC row is where the walled-off leaf headroom surfaces: the root's
	// derived net capacity stays 40 (shrinking the SB afterwards keeps
	// child ≤ parent valid), used 4 → headroom 36, but only 20 is reachable
	// through the capped SB: admissible = min(36, 0 + 20) = 20, stranded 16.
	var dcRow FragmentationRow
	for _, row := range rows {
		if row.Level == powertree.DC && row.Dimension == "net" {
			dcRow = row
		}
	}
	if dcRow.StrandedWatts != 16 {
		t.Fatalf("dc/net stranded = %v, want 16 (%+v)", dcRow.StrandedWatts, dcRow)
	}
}

func TestMultiFragmentationPowerOnlyPassThrough(t *testing.T) {
	traces := map[string]timeseries.Series{"a": fragSeries(10, 10)}
	tree := fragTree(t, 200) // no capacities anywhere
	if err := tree.Leaves()[0].Attach("a"); err != nil {
		t.Fatal(err)
	}
	want, err := FragmentationRates(tree, fragLookup(traces))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MultiFragmentationRates(tree, fragLookup(traces), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pass-through row count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Invalid demand vectors surface as errors.
	bad := demandTable(map[string]powertree.ResourceVector{"a": {"net": -1}})
	multi := multiFragTree(t, 200)
	if err := multi.Leaves()[0].Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := MultiFragmentationRates(multi, fragLookup(traces), bad); !errors.Is(err, powertree.ErrBadDimension) {
		t.Fatalf("invalid demand: %v", err)
	}
}

func TestStrandedNodeCount(t *testing.T) {
	traces := map[string]timeseries.Series{
		"a": fragSeries(10, 10), "b": fragSeries(10, 10),
	}
	demands := map[string]powertree.ResourceVector{
		"a": {"net": 10}, // saturates leaf 0's net
		"b": {"net": 10}, // saturates leaf 1's net
	}
	tree := multiFragTree(t, 200)
	leaves := tree.Leaves()
	if err := leaves[0].Attach("a"); err != nil {
		t.Fatal(err)
	}
	if err := leaves[1].Attach("b"); err != nil {
		t.Fatal(err)
	}
	aggs, err := tree.AggregateAll(fragLookup(traces))
	if err != nil {
		t.Fatal(err)
	}
	// Probe: a modest instance needing 1 net. Leaves 0 and 1 have plenty of
	// power headroom but zero free net → stranded. Leaves 2 and 3 admit it.
	n, err := StrandedNodeCount(aggs, demandTable(demands),
		powertree.RPP, 5, powertree.ResourceVector{"net": 1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("stranded leaves = %d, want 2", n)
	}
	// A power-only probe sees no stranding (all leaves have power headroom).
	n, err = StrandedNodeCount(aggs, demandTable(demands),
		powertree.RPP, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("power-only stranded leaves = %d, want 0", n)
	}
}
