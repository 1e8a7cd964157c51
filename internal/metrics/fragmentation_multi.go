package metrics

import (
	"math"

	"repro/internal/powertree"
)

// Per-dimension stranded headroom.
//
// With multi-resource nodes (powertree.ResourceVector) the fragmentation
// question generalizes: a leaf can advertise free network ports that are
// unreachable because an ancestor's declared network capacity is exhausted,
// and — the FARB motivation — a node can hold abundant residual in one
// dimension and none in another, so the abundant one is stranded for any
// workload that needs both. MultiFragmentationRates reports, per (level,
// dimension), how much declared capacity headroom cannot actually admit new
// demand, using the same bottom-up admissible rule as the power rows:
//
//	admissible(n) = min(max(0, capacity_d − used_d), Σ admissible(children))
//
// where a child that does not declare the dimension imposes no constraint
// (its subtree passes demand through unbounded), mirroring the partial-
// declaration rule of powertree.Node.Capacities.

// MultiFragmentationRates extends FragmentationRatesFrom with one row per
// (level, capacity dimension), computed from an aggregation snapshot and
// the tree's capacity ledger: the canonical power rows come first (in
// level order), then each declared dimension's rows in ascending dimension
// order. A tree with no declared capacities yields exactly the power rows;
// a nil ledger counts no demand. Levels where no node declares a dimension
// are skipped for that dimension.
func MultiFragmentationRates(aggs *powertree.Aggregates, usage *powertree.Usage) ([]FragmentationRow, error) {
	tree := aggs.Root()
	rows, err := FragmentationRatesFrom(tree, aggs)
	if err != nil {
		return nil, err
	}
	for _, dim := range treeDimensions(tree) {
		rows = append(rows, dimensionRows(tree, dim, usage)...)
	}
	return rows, nil
}

// treeDimensions collects every capacity dimension declared anywhere in the
// tree, ascending.
func treeDimensions(tree *powertree.Node) []string {
	var sum powertree.ResourceVector
	tree.Walk(func(n *powertree.Node) {
		sum = sum.AddInPlace(n.Capacities)
	})
	return sum.Dimensions()
}

// dimensionRows builds the per-level rows for one capacity dimension.
func dimensionRows(tree *powertree.Node, dim string, usage *powertree.Usage) []FragmentationRow {
	// admissible(n) through the subtree for this dimension; +Inf means the
	// subtree imposes no constraint (no declarations below or at n).
	admissible := make(map[*powertree.Node]float64)
	var build func(n *powertree.Node) float64
	build = func(n *powertree.Node) float64 {
		below := math.Inf(1)
		if !n.IsLeaf() {
			below = 0
			for _, c := range n.Children {
				below += build(c)
			}
		}
		limit, declared := n.Capacities[dim]
		if !declared {
			return below
		}
		head := limit - usage.Used(n).Get(dim)
		if head < 0 {
			head = 0
		}
		adm := math.Min(head, below)
		admissible[n] = adm
		return adm
	}
	build(tree)

	var out []FragmentationRow
	for _, level := range powertree.Levels {
		nodes := tree.NodesAtLevel(level)
		row := FragmentationRow{Level: level, Dimension: dim}
		declared := false
		for _, n := range nodes {
			limit, ok := n.Capacities[dim]
			if !ok {
				continue
			}
			declared = true
			head := limit - usage.Used(n).Get(dim)
			if head < 0 {
				head = 0
			}
			row.Capacity += limit
			row.Headroom += head
			row.Admissible += admissible[n]
		}
		if !declared {
			continue
		}
		row.StrandedWatts = row.Headroom - row.Admissible
		if row.Capacity > 0 {
			row.RatePct = 100 * row.StrandedWatts / row.Capacity
		}
		out = append(out, row)
	}
	return out
}

// StrandedNodeCount reports how many nodes at a level are stranded for the
// given demand shape: the node has strictly positive headroom in at least
// one dimension (power included) yet cannot admit one probe instance of the
// given demand because some other dimension (or an ancestor) is exhausted.
// It is the node-granularity companion to the rate rows — the quantity the
// multi-dimension experiment drives down — computed from an aggregation
// snapshot of the tree and its capacity ledger against a probe of
// probePower watts and probeDemand (nil means power-only probing).
func StrandedNodeCount(aggs *powertree.Aggregates, usage *powertree.Usage, level powertree.Level, probePower float64, probeDemand powertree.ResourceVector) int {
	fits := func(n *powertree.Node) bool {
		for m := n; m != nil; m = m.Parent() {
			if aggs.Peak(m)+probePower > m.Budget {
				return false
			}
		}
		return usage.PathFits(n, nil, probeDemand, nil)
	}
	count := 0
	for _, n := range aggs.NodesAtLevel(level) {
		headroom := n.Budget-aggs.Peak(n) > 0
		for _, dim := range n.Capacities.Dimensions() {
			if n.Capacities[dim]-usage.Used(n).Get(dim) > 0 {
				headroom = true
			}
		}
		if headroom && !fits(n) {
			count++
		}
	}
	return count
}
