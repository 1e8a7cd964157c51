package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// This file implements online (arrival-stream) placement. The batch placers
// in placement.go populate an empty tree from a full fleet snapshot;
// production fleets churn, so the online placer admits and retires one
// instance at a time against a live, already-populated tree. Feasibility is
// breaker-driven: an arriving instance may land on a leaf only if the leaf
// and every ancestor stay within budget once the instance's I-trace is added
// to their aggregates. Which feasible leaf wins is the policy's choice; the
// asynchrony-aware policy reuses the differential score of §3.6 so arrivals
// keep smoothing node aggregates instead of re-fragmenting them.

// Errors returned by online placement.
var (
	ErrNoCapacity      = errors.New("placement: no leaf can admit the instance without a breaker violation")
	ErrAlreadyAdmitted = errors.New("placement: instance already admitted")
	ErrUnknownInstance = errors.New("placement: instance not admitted")
	ErrNilPolicy       = errors.New("placement: online placer needs a policy")
)

// OnlineCandidate is one feasible leaf offered to an online policy.
type OnlineCandidate struct {
	// Leaf is the candidate host node.
	Leaf *powertree.Node
	// Residents are the traces of the instances currently on the leaf, in
	// attachment order. The slice is shared with the placer's internal
	// state and must not be mutated.
	Residents []timeseries.Series
	// PostPeak is the peak of the leaf's aggregate trace after admitting
	// the arriving instance.
	PostPeak float64
	// Headroom is Leaf.Budget − PostPeak (≥ 0 for a feasible candidate).
	Headroom float64
	// Residuals are the leaf's post-admission residual fractions
	// (free/capacity ∈ [0, 1]): power first, then the leaf's declared
	// capacity dimensions in Dimensions() (sorted) order. A power-only leaf
	// has exactly one entry.
	Residuals []float64
}

// OnlinePolicy picks which feasible leaf hosts an arriving instance.
// Implementations must be deterministic given their configuration and the
// sequence of Choose calls.
type OnlinePolicy interface {
	// Name identifies the policy in reports and experiment tables.
	Name() string
	// Choose returns the index of the winning candidate. cands is never
	// empty and is ordered by tree (leaf) order.
	Choose(cands []OnlineCandidate, inst Instance, trace timeseries.Series) (int, error)
}

// OnlinePlacer admits and retires instances one at a time against a live
// tree, maintaining whatever incremental state its policy needs between
// calls.
type OnlinePlacer interface {
	// Admit places the instance on a feasible leaf and returns it.
	Admit(inst Instance) (*powertree.Node, error)
	// Retire removes a previously admitted (or pre-existing) instance and
	// returns the leaf that hosted it.
	Retire(id string) (*powertree.Node, error)
}

// Online is the concrete OnlinePlacer. It snapshots the tree's current
// residents at construction and keeps every node's aggregate power trace in
// a powertree.Aggregator over its TraceFn: an admission or retirement
// attaches or detaches one instance, marks its leaf dirty and lets the
// Aggregator re-fold that leaf and re-combine its root path. No full-tree
// re-aggregation ever happens after construction, and every aggregate is
// bit-identical to a fresh AggregateAll of the same tree.
type Online struct {
	tree    *powertree.Node
	traces  TraceFn
	policy  OnlinePolicy
	demands DemandFn

	// agg maintains every node's aggregate power trace.
	agg *powertree.Aggregator
	// demandOf records each known instance's resolved demand vector (absent
	// = power-only); used holds each node's subtree demand
	// (powertree.SubtreeDemands), the capacity-dimension analogue of the
	// aggregates. Both stay empty on power-only trees.
	demandOf map[string]powertree.ResourceVector
	used     map[*powertree.Node]powertree.ResourceVector
	// residents holds per-leaf traces parallel to leaf.Instances;
	// residentIDs holds the matching instance IDs — the placer's own record
	// of who it thinks lives on each leaf, which Resync diffs against the
	// tree after an external move.
	residents   map[*powertree.Node][]timeseries.Series
	residentIDs map[*powertree.Node][]string
	// leafOf locates every admitted instance's hosting leaf.
	leafOf map[string]*powertree.Node
}

// NewOnline wraps a live (possibly already populated) tree for online
// placement with the policy cfg describes. Every resident instance's trace
// must resolve through traces; when cfg.Demands is set, residents' demand
// vectors resolve through it too and capacity dimensions are enforced on
// every admission. The zero PolicyConfig reproduces the power-only
// asynchrony placer decision-for-decision.
func NewOnline(tree *powertree.Node, traces TraceFn, cfg PolicyConfig) (*Online, error) {
	policy, err := NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return newOnline(tree, traces, policy, cfg.Demands)
}

// NewOnlineWithPolicy wraps a live tree using a caller-implemented Policy
// value directly. Prefer NewOnline with PolicyConfig{Custom: policy,
// Demands: fn}, which can also install a demand resolver; this constructor
// installs none.
func NewOnlineWithPolicy(tree *powertree.Node, traces TraceFn, policy Policy) (*Online, error) {
	return newOnline(tree, traces, policy, nil)
}

func newOnline(tree *powertree.Node, traces TraceFn, policy Policy, demands DemandFn) (*Online, error) {
	if policy == nil {
		return nil, ErrNilPolicy
	}
	leaves := tree.Leaves()
	if len(leaves) == 0 {
		return nil, ErrNoLeaves
	}
	o := &Online{
		tree:        tree,
		traces:      traces,
		policy:      policy,
		demands:     demands,
		demandOf:    make(map[string]powertree.ResourceVector),
		residents:   make(map[*powertree.Node][]timeseries.Series, len(leaves)),
		residentIDs: make(map[*powertree.Node][]string, len(leaves)),
		leafOf:      make(map[string]*powertree.Node),
	}
	for _, leaf := range leaves {
		if err := o.snapshotLeaf(leaf); err != nil {
			return nil, err
		}
	}
	agg, err := powertree.NewAggregator(tree, powertree.PowerFn(traces))
	if err != nil {
		return nil, fmt.Errorf("placement: aggregating the live tree: %w", err)
	}
	o.agg = agg
	if o.used, err = powertree.SubtreeDemands(tree, o.demandFor); err != nil {
		return nil, err
	}
	return o, nil
}

// Tree returns the live tree the placer operates on.
func (o *Online) Tree() *powertree.Node { return o.tree }

// Snapshot returns the placer's current per-node aggregates: immutable,
// safe to keep after further admissions, and bit-identical to a fresh
// AggregateAll of the live tree over the placer's TraceFn.
func (o *Online) Snapshot() *powertree.Aggregates { return o.agg.Snapshot() }

// Aggregate returns the node's current aggregate power trace (Empty when
// the subtree hosts no instances). The series is owned by the placer and
// must not be mutated.
func (o *Online) Aggregate(n *powertree.Node) timeseries.Series {
	tr, _ := o.agg.Snapshot().Trace(n)
	return tr
}

// Leaf reports which leaf hosts an admitted (or pre-existing) instance.
func (o *Online) Leaf(id string) (*powertree.Node, bool) {
	leaf, ok := o.leafOf[id]
	return leaf, ok
}

// Used returns the node's accumulated capacity-dimension demand — the
// per-dimension sum over the subtree's residents (nil when nothing in the
// subtree demands anything beyond power). The vector is owned by the placer
// and must not be mutated.
func (o *Online) Used(n *powertree.Node) powertree.ResourceVector { return o.used[n] }

// Demand reports the demand vector on record for an admitted (or
// pre-existing) instance; ok is false for unknown or power-only instances.
// The vector is owned by the placer and must not be mutated.
func (o *Online) Demand(id string) (powertree.ResourceVector, bool) {
	d, ok := o.demandOf[id]
	return d, ok
}

// demandFor resolves an instance to the demand on record, for
// powertree.SubtreeDemands and RefreshDemand.
func (o *Online) demandFor(id string) (powertree.ResourceVector, error) {
	return o.demandOf[id], nil
}

// resolveDemand resolves an instance's demand vector — the inline vector
// from the Instance itself wins, then the placer's DemandFn — validating
// and defensively cloning it. Nil means power-only.
func (o *Online) resolveDemand(id string, inline powertree.ResourceVector) (powertree.ResourceVector, error) {
	d := inline
	if d == nil && o.demands != nil {
		if v, ok := o.demands(id); ok {
			d = v
		}
	}
	if len(d) == 0 {
		return nil, nil
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("placement: demand for instance %q: %w", id, err)
	}
	return d.Clone(), nil
}

// snapshotLeaf (re)builds one leaf's resident trace and ID records from the
// tree's current leaf.Instances, re-pointing leafOf at this leaf for each.
func (o *Online) snapshotLeaf(leaf *powertree.Node) error {
	trs := make([]timeseries.Series, 0, len(leaf.Instances))
	ids := make([]string, 0, len(leaf.Instances))
	for _, id := range leaf.Instances {
		tr, ok := o.traces(id)
		if !ok {
			return fmt.Errorf("%w for resident instance %q", ErrMissingTrace, id)
		}
		trs = append(trs, tr)
		ids = append(ids, id)
		o.leafOf[id] = leaf
		// Demands recorded at admission (possibly inline on the Instance)
		// survive resyncs; only unseen residents consult the DemandFn.
		if _, ok := o.demandOf[id]; !ok {
			d, err := o.resolveDemand(id, nil)
			if err != nil {
				return err
			}
			if d != nil {
				o.demandOf[id] = d
			}
		}
	}
	o.residents[leaf] = trs
	o.residentIDs[leaf] = ids
	return nil
}

// refresh folds churn on the given leaves into the aggregates and the
// subtree demands along their root paths. Shared ancestors are refreshed
// more than once; RefreshDemand is idempotent so the extra passes only cost
// time, and power-only placers skip the demand half entirely.
func (o *Online) refresh(leaves ...*powertree.Node) error {
	if err := o.agg.MarkDirty(leaves...); err != nil {
		return err
	}
	if _, err := o.agg.Update(); err != nil {
		return fmt.Errorf("placement: updating aggregates: %w", err)
	}
	if len(o.demandOf) == 0 && len(o.used) == 0 {
		return nil
	}
	for _, leaf := range leaves {
		for n := leaf; n != nil; n = n.Parent() {
			if err := powertree.RefreshDemand(o.used, n, o.demandFor); err != nil {
				return err
			}
		}
	}
	return nil
}

// Resync reconciles the placer's state with the live tree for the given
// leaves after an external mutation moved instances among them (typically a
// Remap tick swapping residents between RPPs). Only the named leaves and
// their root paths are touched: residents are re-snapshotted from
// leaf.Instances and the leaves marked dirty in the Aggregator, so a k-leaf
// resync costs O(k·(instances-per-leaf + depth)·len) instead of a full
// reconstruction.
//
// The caller must name every leaf whose instance set changed; missing one
// leaves that leaf's aggregates stale. On error (unknown resident trace,
// foreign node) the placer's state may be partially updated and the placer
// should be discarded and rebuilt.
func (o *Online) Resync(leaves ...*powertree.Node) error {
	// Marking validates every target (nil, interior and foreign nodes are
	// rejected) before any state changes.
	if err := o.agg.MarkDirty(leaves...); err != nil {
		return fmt.Errorf("placement: resync: %w", err)
	}
	// Phase 1: forget every instance the placer had recorded on the resynced
	// leaves. All removals happen before any re-snapshot so an instance
	// swapped between two resynced leaves is not dropped by a later removal.
	for _, leaf := range leaves {
		for _, id := range o.residentIDs[leaf] {
			if o.leafOf[id] == leaf {
				delete(o.leafOf, id)
			}
		}
	}
	// Phase 2: re-snapshot residents from the tree's current placement.
	for _, leaf := range leaves {
		if err := o.snapshotLeaf(leaf); err != nil {
			return err
		}
	}
	if err := o.refresh(leaves...); err != nil {
		return err
	}
	obsResyncs.Inc()
	obsResyncLeaves.Add(uint64(len(leaves)))
	return nil
}

// peakWith returns the peak of agg + tr without materializing the sum.
func peakWith(agg, tr timeseries.Series) (float64, error) {
	if agg.Empty() {
		return tr.Peak(), nil
	}
	if agg.Len() != tr.Len() || !agg.Start.Equal(tr.Start) || agg.Step != tr.Step {
		return 0, fmt.Errorf("placement: arriving trace misaligned with aggregate (%d@%v vs %d@%v)",
			tr.Len(), tr.Step, agg.Len(), agg.Step)
	}
	peak := math.Inf(-1)
	for i, v := range agg.Values {
		if s := v + tr.Values[i]; s > peak {
			peak = s
		}
	}
	return peak, nil
}

// residualFractions builds a candidate leaf's post-admission residual
// vector: power headroom fraction first, then free/capacity for each
// declared capacity dimension in sorted order. Zero-capacity dimensions
// read as residual 0 (saturated).
func (o *Online) residualFractions(leaf *powertree.Node, headroom float64, demand powertree.ResourceVector) []float64 {
	res := make([]float64, 1, 1+len(leaf.Capacities))
	res[0] = headroom / leaf.Budget
	if len(leaf.Capacities) == 0 {
		return res
	}
	used := o.used[leaf]
	for _, dim := range leaf.Capacities.Dimensions() {
		limit := leaf.Capacities[dim]
		frac := 0.0
		if limit > 0 {
			free := limit - used.Get(dim) - demand.Get(dim)
			if free < 0 {
				free = 0 // float residue; CapacityFits already gated
			}
			frac = free / limit
		}
		res = append(res, frac)
	}
	return res
}

// feasibleLeaves collects the leaves that can admit tr (and the instance's
// demand vector, if any) without a breaker violation or capacity overflow
// anywhere on their root path, pruning whole subtrees at the first interior
// node that cannot absorb the instance. Candidates come back in tree (leaf)
// order.
func (o *Online) feasibleLeaves(tr timeseries.Series, demand powertree.ResourceVector) ([]OnlineCandidate, error) {
	snap := o.agg.Snapshot()
	var cands []OnlineCandidate
	var walk func(n *powertree.Node) error
	walk = func(n *powertree.Node) error {
		agg, _ := snap.Trace(n)
		post, err := peakWith(agg, tr)
		if err != nil {
			return err
		}
		if post > n.Budget {
			return nil // this node's breaker would trip; nothing below fits
		}
		if !n.CapacityFits(o.used[n], demand, nil) {
			return nil // a declared capacity dimension would overflow
		}
		if n.IsLeaf() {
			cands = append(cands, OnlineCandidate{
				Leaf:      n,
				Residents: o.residents[n],
				PostPeak:  post,
				Headroom:  n.Budget - post,
				Residuals: o.residualFractions(n, n.Budget-post, demand),
			})
			return nil
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(o.tree); err != nil {
		return nil, err
	}
	return cands, nil
}

// Admit implements OnlinePlacer. The instance's trace is resolved through
// the placer's TraceFn; a missing trace is ErrMissingTrace (callers with a
// quarantine path substitute a reference trace in their TraceFn instead).
func (o *Online) Admit(inst Instance) (*powertree.Node, error) {
	if _, ok := o.leafOf[inst.ID]; ok {
		return nil, fmt.Errorf("%w: %q", ErrAlreadyAdmitted, inst.ID)
	}
	tr, ok := o.traces(inst.ID)
	if !ok {
		return nil, fmt.Errorf("%w for instance %q", ErrMissingTrace, inst.ID)
	}
	demand, err := o.resolveDemand(inst.ID, inst.Demands)
	if err != nil {
		return nil, err
	}
	cands, err := o.feasibleLeaves(tr, demand)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		obsAdmissionRejects.Inc()
		return nil, fmt.Errorf("%w: %q", ErrNoCapacity, inst.ID)
	}
	idx, err := o.policy.Choose(cands, inst, tr)
	if err != nil {
		return nil, fmt.Errorf("placement: policy %q choosing for %q: %w", o.policy.Name(), inst.ID, err)
	}
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Errorf("placement: policy %q chose candidate %d of %d", o.policy.Name(), idx, len(cands))
	}
	leaf := cands[idx].Leaf
	if err := leaf.Attach(inst.ID); err != nil {
		return nil, err
	}
	o.residents[leaf] = append(o.residents[leaf], tr)
	o.residentIDs[leaf] = append(o.residentIDs[leaf], inst.ID)
	o.leafOf[inst.ID] = leaf
	if demand != nil {
		o.demandOf[inst.ID] = demand
	}
	if err := o.refresh(leaf); err != nil {
		return nil, err
	}
	obsAdmissions.Inc()
	return leaf, nil
}

// Retire implements OnlinePlacer: it detaches the instance and refreshes
// its leaf's root path only.
func (o *Online) Retire(id string) (*powertree.Node, error) {
	leaf, ok := o.leafOf[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	idx := -1
	for i, rid := range leaf.Instances {
		if rid == id {
			idx = i
			break
		}
	}
	if idx < 0 || !leaf.Detach(id) {
		return nil, fmt.Errorf("placement: retire bookkeeping failed for %q", id)
	}
	trs := o.residents[leaf]
	o.residents[leaf] = append(trs[:idx:idx], trs[idx+1:]...)
	ids := o.residentIDs[leaf]
	o.residentIDs[leaf] = append(ids[:idx:idx], ids[idx+1:]...)
	delete(o.leafOf, id)
	delete(o.demandOf, id)
	if err := o.refresh(leaf); err != nil {
		return nil, err
	}
	obsRetirements.Inc()
	return leaf, nil
}

// ---------------------------------------------------------------- policies

// OnlineRandom is the arrival-stream baseline that picks uniformly among
// the feasible leaves from a seeded stream — the FGD evaluation's "Random"
// policy translated to power trees.
type OnlineRandom struct {
	rng *rand.Rand
}

// NewOnlineRandom returns a random policy with a fixed decision stream.
//
// Deprecated: use NewPolicy(PolicyConfig{Kind: PolicyRandom, Seed: seed}),
// or pass that PolicyConfig to NewOnline directly.
func NewOnlineRandom(seed int64) *OnlineRandom {
	return &OnlineRandom{rng: newRand(seed)}
}

// NewOnlineBestFit returns the best-fit policy.
//
// Deprecated: use NewPolicy(PolicyConfig{Kind: PolicyBestFit}), or pass
// that PolicyConfig to NewOnline directly.
func NewOnlineBestFit() OnlineBestFit { return OnlineBestFit{} }

// NewOnlineAsynchrony returns the workload-aware asynchrony policy.
//
// Deprecated: use NewPolicy(PolicyConfig{}) — asynchrony is the default
// kind — or pass the PolicyConfig to NewOnline directly.
func NewOnlineAsynchrony() OnlineAsynchrony { return OnlineAsynchrony{} }

// Name implements OnlinePolicy.
func (p *OnlineRandom) Name() string { return "random" }

// Choose implements OnlinePolicy.
func (p *OnlineRandom) Choose(cands []OnlineCandidate, _ Instance, _ timeseries.Series) (int, error) {
	return p.rng.Intn(len(cands)), nil
}

// OnlineBestFit packs each arrival onto the feasible leaf it fills
// tightest: minimal post-admit headroom, ties to the earlier leaf in tree
// order. This is the classic best-fit bin-packing baseline.
type OnlineBestFit struct{}

// Name implements OnlinePolicy.
func (OnlineBestFit) Name() string { return "best-fit" }

// Choose implements OnlinePolicy.
func (OnlineBestFit) Choose(cands []OnlineCandidate, _ Instance, _ timeseries.Series) (int, error) {
	best, bestHead := 0, math.Inf(1)
	for i, c := range cands {
		if c.Headroom < bestHead {
			best, bestHead = i, c.Headroom
		}
	}
	return best, nil
}

// OnlineAsynchrony is the workload-aware policy: the arrival lands on the
// feasible leaf whose residents it is most asynchronous with, measured by
// the differential asynchrony score of §3.6 (score.Differential) — exactly
// the quantity Remap maximizes when it repairs drift, applied at admission
// time instead. Empty leaves score +Inf (a lone instance cannot overlap
// with anything); ties break toward the tighter fit, then tree order.
type OnlineAsynchrony struct{}

// Name implements OnlinePolicy.
func (OnlineAsynchrony) Name() string { return "asynchrony" }

// Choose implements OnlinePolicy.
func (OnlineAsynchrony) Choose(cands []OnlineCandidate, _ Instance, tr timeseries.Series) (int, error) {
	best, bestScore, bestHead := -1, math.Inf(-1), math.Inf(1)
	for i, c := range cands {
		s := math.Inf(1)
		if len(c.Residents) > 0 {
			var err error
			s, err = score.Differential(tr, c.Residents)
			if err != nil {
				return 0, fmt.Errorf("differential against %q: %w", c.Leaf.Name, err)
			}
		}
		if s > bestScore || (s == bestScore && c.Headroom < bestHead) {
			best, bestScore, bestHead = i, s, c.Headroom
		}
	}
	return best, nil
}
