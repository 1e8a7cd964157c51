package powertree

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/detmap"
)

// Multi-resource capacity support.
//
// The paper's tree carries a single capacity dimension — the power budget —
// and everything in the reproduction keys off Node.Budget. Real placement
// also strands thermal, network and rack-space headroom: a node can have
// abundant residual power yet no network ports left, so nothing more fits
// ("Power- and Fragmentation-aware Online Scheduling for GPU Datacenters",
// PAPERS.md). A Node may therefore optionally carry a Capacities vector of
// named non-power dimensions alongside its canonical power budget. Trees
// without capacities behave (and serialize) exactly as before; every
// multi-resource code path is inert when the vector is nil.

// PowerDimension names the canonical capacity dimension carried by
// Node.Budget. It is reserved: ResourceVectors must not redeclare it.
const PowerDimension = "power"

// ResourceVector maps resource dimension names (e.g. "net_gbps",
// "rack_slots", "thermal_w") to non-negative quantities. A nil vector means
// "no declared dimensions". Vectors are value-semantics maps: helpers return
// fresh maps and never mutate their receivers' callers; iterate via
// Dimensions for deterministic order.
type ResourceVector map[string]float64

// Errors returned by resource-vector validation.
var (
	ErrBadDimension   = errors.New("powertree: resource dimensions must be named, finite and non-negative")
	ErrReservedPower  = errors.New(`powertree: dimension "power" is reserved for Node.Budget`)
	ErrCapacityExceed = errors.New("powertree: child capacity exceeds parent capacity")
)

// Dimensions returns the vector's dimension names in ascending order — the
// only sanctioned iteration order inside the deterministic pipeline.
func (v ResourceVector) Dimensions() []string {
	if len(v) == 0 {
		return nil
	}
	return detmap.SortedKeys(v)
}

// Clone returns an independent copy (nil stays nil).
func (v ResourceVector) Clone() ResourceVector {
	if v == nil {
		return nil
	}
	out := make(ResourceVector, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Get returns the quantity for a dimension, 0 when absent.
func (v ResourceVector) Get(dim string) float64 { return v[dim] }

// Add returns v + w as a fresh vector; dimensions absent on one side count
// as 0. Two nil vectors stay nil.
func (v ResourceVector) Add(w ResourceVector) ResourceVector {
	if len(v) == 0 && len(w) == 0 {
		return nil
	}
	out := make(ResourceVector, len(v)+len(w))
	for k, val := range v {
		out[k] = val
	}
	for k, val := range w {
		out[k] += val
	}
	return out
}

// AddInPlace folds w into v (allocating only when v is nil) and returns the
// result — the vector analogue of Series.AddInPlace.
func (v ResourceVector) AddInPlace(w ResourceVector) ResourceVector {
	if len(w) == 0 {
		return v
	}
	if v == nil {
		return w.Clone()
	}
	for k, val := range w {
		v[k] += val
	}
	return v
}

// SubInPlace subtracts w from v in place, clamping tiny negative residue
// from float cancellation to exactly 0 so repeated admit/retire cycles
// cannot drift a dimension below zero.
func (v ResourceVector) SubInPlace(w ResourceVector) ResourceVector {
	if len(w) == 0 || v == nil {
		return v
	}
	for k, val := range w {
		r := v[k] - val
		if r < 0 {
			r = 0
		}
		v[k] = r
	}
	return v
}

// Validate checks that every dimension is named, finite and non-negative,
// and that the reserved power dimension is not redeclared.
func (v ResourceVector) Validate() error {
	for _, dim := range v.Dimensions() {
		if dim == "" {
			return ErrBadDimension
		}
		if dim == PowerDimension {
			return ErrReservedPower
		}
		val := v[dim]
		if math.IsNaN(val) || math.IsInf(val, 0) || val < 0 {
			return fmt.Errorf("%w: %q = %v", ErrBadDimension, dim, val)
		}
	}
	return nil
}

// SumCapacities derives a node's capacity vector as the per-dimension sum of
// its children's capacities — the multi-resource analogue of "the power
// budget of each node is approximately the sum of the budgets of its
// children" (§2.2).
func SumCapacities(children []*Node) ResourceVector {
	var sum ResourceVector
	for _, c := range children {
		sum = sum.AddInPlace(c.Capacities)
	}
	return sum
}

// SubtreeDemands sums every node's subtree demand bottom-up: the returned
// map holds, for each node whose subtree hosts a demanding instance, the
// per-dimension sum of those instances' demand vectors. Nodes whose subtree
// demands nothing are absent. demand resolves one instance's vector (nil
// means nothing beyond power); its error aborts the sum.
func SubtreeDemands(root *Node, demand func(id string) (ResourceVector, error)) (map[*Node]ResourceVector, error) {
	used := make(map[*Node]ResourceVector)
	var sum func(n *Node) error
	sum = func(n *Node) error {
		for _, c := range n.Children {
			if err := sum(c); err != nil {
				return err
			}
		}
		return RefreshDemand(used, n, demand)
	}
	if err := sum(root); err != nil {
		return nil, err
	}
	return used, nil
}

// RefreshDemand recomputes one node's entry of a SubtreeDemands map from
// the node's own instances and its children's entries, which must already
// be current — the incremental form callers use to refresh a root path
// after churn on one leaf.
func RefreshDemand(used map[*Node]ResourceVector, n *Node, demand func(id string) (ResourceVector, error)) error {
	var sum ResourceVector
	for _, id := range n.Instances {
		d, err := demand(id)
		if err != nil {
			return err
		}
		sum = sum.AddInPlace(d)
	}
	for _, c := range n.Children {
		sum = sum.AddInPlace(used[c])
	}
	if sum == nil {
		delete(used, n)
	} else {
		used[n] = sum
	}
	return nil
}

// CapacityFits reports whether used − out + in stays within every capacity
// dimension the node declares, for each dimension of in. Dimensions the
// node does not declare are unconstrained there (partial declarations are
// allowed), and an empty in always fits.
func (n *Node) CapacityFits(used, in, out ResourceVector) bool {
	if len(in) == 0 || len(n.Capacities) == 0 {
		return true
	}
	for _, dim := range in.Dimensions() {
		limit, ok := n.Capacities[dim]
		if ok && used.Get(dim)-out.Get(dim)+in.Get(dim) > limit {
			return false
		}
	}
	return true
}

// validateCapacities walks the subtree checking the capacity invariants:
// every vector is well-formed and, wherever parent and child both declare a
// dimension, the child's capacity does not exceed the parent's (mirroring
// the Budget rule).
func validateCapacities(n *Node) error {
	if err := n.Capacities.Validate(); err != nil {
		return fmt.Errorf("node %q: %w", n.Name, err)
	}
	for _, c := range n.Children {
		for _, dim := range c.Capacities.Dimensions() {
			pcap, ok := n.Capacities[dim]
			if !ok {
				continue
			}
			if c.Capacities[dim] > pcap {
				return fmt.Errorf("%w: %q %s %v > %q %v",
					ErrCapacityExceed, c.Name, dim, c.Capacities[dim], n.Name, pcap)
			}
		}
		if err := validateCapacities(c); err != nil {
			return err
		}
	}
	return nil
}
