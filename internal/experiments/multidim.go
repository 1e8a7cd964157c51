package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/workload"
)

// Multi-resource stranded-capacity sweep.
//
// The fragmentation sweep measures stranded watts; this sweep measures
// stranded *nodes*: leaves that still advertise headroom in some dimension
// but cannot actually admit a typical arrival because another dimension is
// exhausted — the stranded-capacity waste multi-resource placement exists to
// avoid. The power-lightest slice of the fleet is given a synthetic "gpu"
// demand and every leaf a gpu capacity of 1.5 demand units; then the same
// shuffled arrival stream is replayed twice: once under the canonical
// power-only asynchrony policy (demand-oblivious, the pre-multi-resource
// behaviour) and once under the FARB composite with the demand model
// attached. The oblivious policy co-locates gpu users wherever power is
// convenient, overcommitting some leaves' gpu and stranding their remaining
// power headroom; the capacity-aware pass must leave strictly fewer
// stranded leaves without giving back the Σ-leaf-peaks reduction the
// asynchrony objective buys.

// MultiDimPolicies lists the two configurations the sweep compares, in
// report order.
var MultiDimPolicies = []string{"power-only", "farb"}

// MultiDimRow is one configuration's end state after the full arrival
// stream.
type MultiDimRow struct {
	// Policy names the configuration (see MultiDimPolicies).
	Policy string
	// Admitted and Rejected count arrivals by admission outcome.
	Admitted int
	Rejected int
	// SumLeafPeaks is Σ leaf peak aggregate power after the stream — the
	// paper's peak-power objective (lower is better).
	SumLeafPeaks float64
	// StrandedNodes counts leaves with strictly positive headroom in some
	// dimension that still cannot admit a probe arrival of typical shape
	// (metrics.StrandedNodeCount at the RPP level).
	StrandedNodes int
	// GpuOverfull counts leaves whose attached gpu demand exceeds their gpu
	// capacity — only a demand-oblivious policy can produce these.
	GpuOverfull int
}

// gpuDemand is the demand of a gpu user; the rest of the fleet draws no gpu
// at all. Each leaf's gpu capacity is 1.5 gpuDemand: one gpu user per leaf
// fits with usable half-demand residue, two exceed the leaf's capacity. A
// demand-oblivious policy co-locates gpu users wherever power is convenient
// — overcommitting the leaf and stranding its remaining power headroom — and
// the capacity-aware policy's feasibility veto is what rules that out.
const (
	gpuDemand  = 4.0
	gpuPerLeaf = 1.5 * gpuDemand
	gpuProbe   = gpuDemand / 2
	// powerSlack sizes the power budgets relative to the fleet's summed
	// peaks: loose enough that power alone rejects nothing, so the gpu
	// dimension is what differentiates the two policies.
	powerSlack = 1.4
)

// multiDimDemands marks the `users` power-lightest instances (by
// averaged-trace peak) as gpu users; everyone else has no gpu demand.
// Anti-correlating gpu demand with power draw is the stranding-prone shape:
// a power-only policy treats the gpu users as easy fits and piles them
// wherever power is convenient, overcommitting gpu on leaves that still
// advertise plenty of power headroom.
func multiDimDemands(ids []string, traces placement.TraceFn, users int) map[string]powertree.ResourceVector {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	peak := make(map[string]float64, len(sorted))
	for _, id := range sorted {
		if tr, ok := traces(id); ok {
			peak[id] = tr.Peak()
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return peak[sorted[i]] < peak[sorted[j]] })
	if users > len(sorted) {
		users = len(sorted)
	}
	demands := make(map[string]powertree.ResourceVector, users)
	for _, id := range sorted[:users] {
		demands[id] = powertree.ResourceVector{"gpu": gpuDemand}
	}
	return demands
}

// setLeafCapacities gives every leaf the same capacity vector and re-derives
// interior capacities as the per-dimension sum of the children.
func setLeafCapacities(tree *powertree.Node, caps powertree.ResourceVector) {
	var derive func(n *powertree.Node)
	derive = func(n *powertree.Node) {
		if n.IsLeaf() {
			n.Capacities = caps.Clone()
			return
		}
		for _, c := range n.Children {
			derive(c)
		}
		n.Capacities = powertree.SumCapacities(n.Children)
	}
	derive(tree)
}

// MultiDimSweep replays one shuffled arrival stream of the datacenter's
// fleet — each instance carrying a synthetic gpu demand — under the
// power-only asynchrony policy and under the capacity-aware FARB composite,
// and reports admissions, Σ leaf peaks and stranded-node counts for each.
// Rows come back in MultiDimPolicies order and are bit-identical for any
// opt.Workers.
func MultiDimSweep(name workload.DCName, opt Options) ([]MultiDimRow, error) {
	opt = opt.withDefaults()
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	avg, err := run.Fleet.AveragedITraces(2)
	if err != nil {
		return nil, err
	}
	traceFn := placement.TraceFn(workload.SubPowerFn(avg))

	order := run.Fleet.IDs()
	rng := rand.New(rand.NewSource(opt.Seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var capacity float64
	for _, id := range order {
		tr, ok := traceFn(id)
		if !ok {
			return nil, fmt.Errorf("experiments: no averaged trace for %q", id)
		}
		capacity += tr.Peak()
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("experiments: %s fleet offers no load", name)
	}

	leaves := len(run.Tree.Leaves())
	// Three gpu users for every four leaves: fewer users than leaves, so a
	// capacity-aware policy can give every user its own leaf, while a
	// demand-oblivious one co-locates some of them by accident.
	demands := multiDimDemands(order, traceFn, leaves*3/4)
	demandFn := func(id string) (powertree.ResourceVector, bool) {
		d, ok := demands[id]
		return d, ok
	}
	configs := map[string]placement.PolicyConfig{
		// The pre-multi-resource behaviour: asynchrony scoring, no demand
		// model, capacities invisible.
		"power-only": {Kind: placement.PolicyAsynchrony},
		// The FARB composite with the demand model attached. Attaching the
		// demand model is what prevents gpu overcommit (capacity becomes a
		// feasibility veto); the weights keep the asynchrony term dominant so
		// the Σ-leaf-peaks objective is preserved, with a light balance term
		// nudging residual dimensions even.
		"farb": {
			Kind:    placement.PolicyFARB,
			Weights: score.FARBWeights{Balance: 0.25, Asynchrony: 8},
			Demands: demandFn,
		},
	}

	perPolicy, err := parallel.Map(context.Background(), len(MultiDimPolicies), opt.Workers, func(pi int) (MultiDimRow, error) {
		policy := MultiDimPolicies[pi]
		tree := run.Tree.Clone()
		tightenBudgets(tree, capacity*powerSlack)
		setLeafCapacities(tree, powertree.ResourceVector{"gpu": gpuPerLeaf})
		o, err := placement.NewOnline(tree, traceFn, configs[policy])
		if err != nil {
			return MultiDimRow{}, err
		}
		row := MultiDimRow{Policy: policy}
		for _, id := range order {
			inst, ok := run.Fleet.Instance(id)
			if !ok {
				return MultiDimRow{}, fmt.Errorf("experiments: fleet lost instance %q", id)
			}
			if _, err := o.Admit(placement.Instance{ID: inst.ID, Service: inst.Service}); err != nil {
				if !errors.Is(err, placement.ErrNoCapacity) {
					return MultiDimRow{}, err
				}
				row.Rejected++
			} else {
				row.Admitted++
			}
		}
		snap := o.Snapshot()
		row.SumLeafPeaks = snap.SumOfPeaks(powertree.RPP)
		// The probe is a half-demand arrival: it fits any leaf hosting at
		// most one gpu user, so the only leaves it exposes as stranded are
		// the gpu-overcommitted ones — plenty of power headroom, no gpu.
		row.StrandedNodes, err = metrics.StrandedNodeCount(snap, demandFn,
			powertree.RPP, 0, powertree.ResourceVector{"gpu": gpuProbe})
		if err != nil {
			return MultiDimRow{}, err
		}
		for _, leaf := range tree.Leaves() {
			var used float64
			for _, id := range leaf.Instances {
				used += demands[id].Get("gpu")
			}
			if used > leaf.Capacities.Get("gpu") {
				row.GpuOverfull++
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return perPolicy, nil
}

// FormatMultiDimSweep renders the sweep as one line per configuration.
func FormatMultiDimSweep(name workload.DCName, rows []MultiDimRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stranded nodes under multi-resource demands (%s, online placement)\n", name)
	fmt.Fprintf(&b, "  %-12s %9s %9s %14s %10s %10s\n",
		"policy", "admitted", "rejected", "Σ leaf peaks", "stranded", "overfull")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s %9d %9d %12.1f W %10d %10d\n",
			r.Policy, r.Admitted, r.Rejected, r.SumLeafPeaks, r.StrandedNodes, r.GpuOverfull)
	}
	return b.String()
}
