package placement

import (
	"fmt"

	"repro/internal/powertree"
)

// Multi-resource capacity enforcement for Remap.
//
// Remap's objective stays the paper's differential asynchrony (§3.6); what
// the redesigned policy API adds is a feasibility contract: when the
// RemapConfig's PolicyConfig carries a demand resolver, a swap may only be
// accepted if both affected subtrees stay within every capacity dimension
// they declare after the exchange. A nil resolver keeps the whole guard
// inert — the power-only path is bit-identical to before.

// remapCapacity tracks per-node used-capacity vectors across a Remap run. A
// nil *remapCapacity is the inert power-only guard: every method is a no-op
// that reports "fits".
type remapCapacity struct {
	demands  DemandFn
	demandOf map[string]powertree.ResourceVector
	used     map[*powertree.Node]powertree.ResourceVector
}

// newRemapCapacity builds the guard for a tree, resolving and validating
// every placed instance's demand once and summing subtree usage bottom-up.
// A nil demands resolver yields a nil (inert) guard.
func newRemapCapacity(tree *powertree.Node, demands DemandFn) (*remapCapacity, error) {
	if demands == nil {
		return nil, nil
	}
	rc := &remapCapacity{
		demands:  demands,
		demandOf: make(map[string]powertree.ResourceVector),
	}
	used, err := powertree.SubtreeDemands(tree, rc.demandFor)
	if err != nil {
		return nil, err
	}
	rc.used = used
	return rc, nil
}

// demandFor resolves (and caches) one instance's validated demand vector;
// nil means power-only. Safe on a nil guard.
func (rc *remapCapacity) demandFor(id string) (powertree.ResourceVector, error) {
	if rc == nil {
		return nil, nil
	}
	if d, ok := rc.demandOf[id]; ok {
		return d, nil
	}
	var d powertree.ResourceVector
	if v, ok := rc.demands(id); ok {
		d = v
	}
	if len(d) == 0 {
		rc.demandOf[id] = nil
		return nil, nil
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("placement: demand for instance %q: %w", id, err)
	}
	d = d.Clone()
	rc.demandOf[id] = d
	return d, nil
}

// lca returns the lowest common ancestor of two nodes of the same tree.
func (rc *remapCapacity) lca(a, b *powertree.Node) *powertree.Node {
	anc := make(map[*powertree.Node]bool)
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

// pathFits checks that used − out + in stays within every declared capacity
// dimension from n up to (exclusive) stop.
func (rc *remapCapacity) pathFits(n, stop *powertree.Node, in, out powertree.ResourceVector) bool {
	for ; n != nil && n != stop; n = n.Parent() {
		if !n.CapacityFits(rc.used[n], in, out) {
			return false
		}
	}
	return true
}

// swapFits reports whether exchanging an instance with demand da (leaving
// node a for b) against one with demand db (leaving b for a) keeps every
// capacity dimension within bounds on both root paths. Ancestors shared by
// both nodes see no net change and are excluded via the LCA.
func (rc *remapCapacity) swapFits(a, b *powertree.Node, da, db powertree.ResourceVector) bool {
	if rc == nil || (len(da) == 0 && len(db) == 0) {
		return true
	}
	lca := rc.lca(a, b)
	return rc.pathFits(a, lca, db, da) && rc.pathFits(b, lca, da, db)
}

// apply commits an accepted swap's demand deltas to the used vectors along
// both root paths (up to the LCA, which sees no net change).
func (rc *remapCapacity) apply(a, b *powertree.Node, da, db powertree.ResourceVector) {
	if rc == nil || (len(da) == 0 && len(db) == 0) {
		return
	}
	lca := rc.lca(a, b)
	for n := a; n != nil && n != lca; n = n.Parent() {
		rc.used[n] = rc.used[n].AddInPlace(db).SubInPlace(da)
	}
	for n := b; n != nil && n != lca; n = n.Parent() {
		rc.used[n] = rc.used[n].AddInPlace(da).SubInPlace(db)
	}
}
