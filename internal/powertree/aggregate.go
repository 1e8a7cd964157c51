// One-pass bottom-up aggregation of the whole power tree.
//
// The fragmentation metrics walk the same tree over and over: SumOfPeaks at
// five levels, LevelPeaks per figure, breaker checks per node. Computing each
// node's aggregate independently re-sums every instance trace once per
// ancestor — O(depth × instances × len) for a full-tree sweep. AggregateAll
// instead folds each leaf's instances once (in parallel, one leaf per index)
// and then combines child aggregates bottom-up, touching every instance
// trace exactly once and every node trace a constant number of times:
// O(instances × len + nodes × len) total. The combine uses the same
// child-recursive operation order as AggregatePower, so every per-node
// result is bit-identical to the per-node path for any worker count.
//
// The same walk (foldTree: foldLeaf for a leaf's own instances, combineEntry
// for an interior node over its children's entries) also backs the
// incremental delta path (see incremental.go), which re-runs it only on
// dirty leaves and their root paths.
package powertree

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/parallel"
	"repro/internal/timeseries"
)

// aggEntry is one node's share of an Aggregates result.
type aggEntry struct {
	trace   timeseries.Series
	peak    float64
	started bool
	missing []string
}

// treeIndex caches the tree walks every Aggregates consumer repeats —
// Leaves() for the fold fan-out and NodesAtLevel() for the per-level
// statistics. One walk at aggregation time replaces a fresh allocation and
// re-walk per call. The index describes topology only (node identity and
// levels), so it stays valid across instance churn and trace changes; it is
// invalidated only when children are added or removed (see
// Aggregator.InvalidateTopology).
type treeIndex struct {
	leaves  []*Node
	byLevel map[Level][]*Node
	leafSet map[*Node]bool
}

// buildTreeIndex walks the subtree once and records leaves and per-level
// node lists in tree order.
func buildTreeIndex(root *Node) *treeIndex {
	ix := &treeIndex{
		byLevel: make(map[Level][]*Node),
		leafSet: make(map[*Node]bool),
	}
	root.Walk(func(m *Node) {
		ix.byLevel[m.Level] = append(ix.byLevel[m.Level], m)
		if m.IsLeaf() {
			ix.leaves = append(ix.leaves, m)
			ix.leafSet[m] = true
		}
	})
	return ix
}

// Aggregates holds the aggregate power trace of every node in a tree,
// computed by one bottom-up pass (AggregateAll) or carried forward
// incrementally (Aggregator.Update). An Aggregates is a snapshot of the tree
// and traces at computation time; it is immutable and safe for concurrent
// reads.
type Aggregates struct {
	root    *Node
	entries map[*Node]*aggEntry
	index   *treeIndex
}

// foldLeaf folds one leaf's own instance traces in attachment order —
// AggregatePower's exact operation order for a leaf. The returned entry owns
// a freshly allocated trace.
func foldLeaf(m *Node, power PowerFn) (*aggEntry, error) {
	e := &aggEntry{}
	for _, id := range m.Instances {
		s, ok := power(id)
		if !ok {
			e.missing = append(e.missing, id)
			continue
		}
		if !e.started {
			e.trace = s.Clone()
			e.started = true
			continue
		}
		if err := e.trace.AddInPlace(s); err != nil {
			return nil, fmt.Errorf("powertree: aggregating %q under %q: %w", id, m.Name, err)
		}
	}
	if e.started {
		e.peak = e.trace.Peak()
	}
	return e, nil
}

// foldLeaves folds each leaf concurrently, one leaf per index (workers ≤ 0
// means the package default). Each fold touches only per-index state, so the
// result is bit-identical to a serial loop and the error returned is the one
// the lowest-index leaf would have hit serially.
func foldLeaves(leaves []*Node, power PowerFn, workers int) ([]*aggEntry, error) {
	return parallel.Map(context.Background(), len(leaves), workers, func(i int) (*aggEntry, error) {
		return foldLeaf(leaves[i], power)
	})
}

// combineEntry recomputes one interior node's entry from its own instance
// traces and its children's current entries, preserving AggregatePower's
// child-recursive operation order exactly: own instances in attachment
// order, then each child's aggregate in child order, first contribution
// cloned, the rest accumulated in place. Given bit-identical child entries
// it therefore produces a bit-identical parent entry — the invariant the
// delta path relies on.
func combineEntry(m *Node, power PowerFn, child func(*Node) *aggEntry) (*aggEntry, error) {
	// Interior nodes hosting instances are invalid (Validate rejects them)
	// but AggregatePower tolerates them, so mirror its fold: own instances
	// first, then child aggregates.
	e, err := foldLeaf(m, power)
	if err != nil {
		return nil, err
	}
	for _, c := range m.Children {
		ce := child(c)
		e.missing = append(e.missing, ce.missing...)
		if !ce.started {
			continue
		}
		if !e.started {
			// Clone: the child's aggregate stays live in the result and must
			// not be mutated by further adds here.
			e.trace = ce.trace.Clone()
			e.started = true
			continue
		}
		if err := e.trace.AddInPlace(ce.trace); err != nil {
			return nil, fmt.Errorf("powertree: combining %q into %q: %w", c.Name, m.Name, err)
		}
	}
	if e.started {
		e.peak = e.trace.Peak()
	}
	return e, nil
}

// foldTree folds the given leaves (in tree order, fanned out over workers)
// and re-combines their ancestors bottom-up in tree order. With needs nil
// every node is recomputed; otherwise only the nodes needs marks are, and
// every other subtree shares its entries from old wholesale. Entries are
// immutable after construction, so sharing is safe for readers of both
// results.
func foldTree(root *Node, leaves []*Node, power PowerFn, workers int, old map[*Node]*aggEntry, needs map[*Node]bool) (map[*Node]*aggEntry, error) {
	folds, err := foldLeaves(leaves, power, workers)
	if err != nil {
		return nil, err
	}
	entries := make(map[*Node]*aggEntry, len(old))
	// build visits nodes in pre-order = tree order, so the recomputed leaves
	// are consumed in the order leaves (and so folds) lists them.
	leafIdx := 0
	var build func(m *Node) error
	build = func(m *Node) error {
		if needs != nil && !needs[m] {
			m.Walk(func(c *Node) { entries[c] = old[c] })
			return nil
		}
		if m.IsLeaf() {
			entries[m] = folds[leafIdx]
			leafIdx++
			return nil
		}
		for _, c := range m.Children {
			if err := build(c); err != nil {
				return err
			}
		}
		e, err := combineEntry(m, power, func(c *Node) *aggEntry { return entries[c] })
		if err != nil {
			return err
		}
		entries[m] = e
		return nil
	}
	if err := build(root); err != nil {
		return nil, err
	}
	return entries, nil
}

// AggregateAll aggregates the whole subtree in one bottom-up pass with the
// default worker count (see internal/parallel).
func (n *Node) AggregateAll(power PowerFn) (*Aggregates, error) {
	return n.AggregateAllParallel(power, 0)
}

// AggregateAllParallel is AggregateAll with an explicit worker count (≤ 0
// means the package default). Leaf folds run concurrently, one leaf per
// index; the bottom-up combine is serial in tree order. Results are
// bit-identical to AggregatePower on every node for any worker count, and
// the error returned is the one the lowest-index leaf would have hit in a
// serial run.
func (n *Node) AggregateAllParallel(power PowerFn, workers int) (*Aggregates, error) {
	timer := obsAggregateSpan.Start()
	index := buildTreeIndex(n)
	entries, err := foldTree(n, index.leaves, power, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	a := &Aggregates{root: n, entries: entries, index: index}
	// Counted after the leaf fan-out and serial combine complete, so the
	// totals are identical for any worker count.
	obsAggregations.Inc()
	obsNodesAggregated.Add(uint64(len(a.entries)))
	timer.End()
	return a, nil
}

// Root returns the node the aggregation was rooted at.
func (a *Aggregates) Root() *Node { return a.root }

// Leaves returns every leaf of the aggregated tree in tree order, from the
// snapshot's cached walk. The slice is shared with the snapshot and must not
// be mutated.
func (a *Aggregates) Leaves() []*Node { return a.index.leaves }

// NodesAtLevel returns the aggregated tree's nodes at the given level in
// tree order, from the snapshot's cached walk — Node.NodesAtLevel without
// the per-call re-walk and re-allocation. The slice is shared with the
// snapshot and must not be mutated.
func (a *Aggregates) NodesAtLevel(l Level) []*Node { return a.index.byLevel[l] }

// Trace returns the node's aggregate power trace. ok is false when the node
// was not part of the aggregated tree or hosts no traced instances. The
// returned series is owned by the Aggregates and must not be mutated; Clone
// it before in-place arithmetic.
func (a *Aggregates) Trace(n *Node) (timeseries.Series, bool) {
	e := a.entries[n]
	if e == nil || !e.started {
		return timeseries.Series{}, false
	}
	return e.trace, true
}

// Peak returns the peak of the node's aggregate power trace, or 0 when the
// node was not aggregated or hosts no traced instances — the same convention
// as Node.PeakPower.
func (a *Aggregates) Peak(n *Node) float64 {
	if e := a.entries[n]; e != nil {
		return e.peak
	}
	return 0
}

// Missing returns the instance IDs under the node whose traces were unknown
// at aggregation time, in pre-order tree order (AggregatePower's order).
func (a *Aggregates) Missing(n *Node) []string {
	if e := a.entries[n]; e != nil {
		return e.missing
	}
	return nil
}

// Headroom returns budget − peak aggregate power for the node, like
// Node.Headroom but without re-aggregating.
func (a *Aggregates) Headroom(n *Node) float64 {
	return n.Budget - a.Peak(n)
}

// SumOfPeaks computes Σ over nodes at the given level of each node's peak
// aggregate power — the paper's fragmentation indicator #1 (§2.2) — from the
// precomputed aggregates. Peaks are summed serially in tree order, matching
// Node.SumOfPeaks bit-for-bit.
func (a *Aggregates) SumOfPeaks(level Level) float64 {
	var total float64
	for _, m := range a.index.byLevel[level] {
		total += a.Peak(m)
	}
	return total
}

// LevelPeaks returns the peak aggregate power of every node at a level,
// keyed by node name.
func (a *Aggregates) LevelPeaks(level Level) map[string]float64 {
	nodes := a.index.byLevel[level]
	out := make(map[string]float64, len(nodes))
	for _, m := range nodes {
		out[m.Name] = a.Peak(m)
	}
	return out
}

// CheckBreakers scans every aggregated node's trace and reports episodes
// where the draw exceeded the node's budget for at least sustain, sorted by
// node name then start index — the scan behind Node.CheckBreakers (§2.2).
func (a *Aggregates) CheckBreakers(sustain time.Duration) []BreakerTrip {
	var trips []BreakerTrip
	a.root.Walk(func(m *Node) {
		e := a.entries[m]
		if e == nil || !e.started || e.trace.Empty() {
			return
		}
		agg := e.trace
		start, over := -1, 0.0
		flush := func(end int) {
			if start < 0 {
				return
			}
			dur := time.Duration(end-start) * agg.Step
			if dur >= sustain {
				trips = append(trips, BreakerTrip{Node: m.Name, Level: m.Level, Start: start, Duration: dur, PeakOverdraw: over})
			}
			start, over = -1, 0
		}
		for i, v := range agg.Values {
			if v > m.Budget {
				if start < 0 {
					start = i
				}
				if v-m.Budget > over {
					over = v - m.Budget
				}
			} else {
				flush(i)
			}
		}
		flush(len(agg.Values))
	})
	sort.Slice(trips, func(i, j int) bool {
		if trips[i].Node != trips[j].Node {
			return trips[i].Node < trips[j].Node
		}
		return trips[i].Start < trips[j].Start
	})
	obsBreakerChecks.Inc()
	obsBreakerTrips.Add(uint64(len(trips)))
	return trips
}
