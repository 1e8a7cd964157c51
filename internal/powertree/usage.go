package powertree

import "fmt"

// Capacity ledger.
//
// Every capacity decision — an online admission, a Remap swap, a
// stranded-capacity metric — needs the same two facts: the demand vector
// each placed instance carries, and what each node's subtree uses in total.
// Usage is the one place that resolves, validates and sums them, the
// capacity-dimension analogue of an Aggregates snapshot. On a tree where no
// instance declares a demand the ledger stays empty, and Refresh does
// nothing and allocates nothing.

// Usage is the capacity ledger of one tree: each instance's validated,
// cloned demand vector (power-only instances have none on record) and every
// node's subtree sum of them. A nil *Usage reads as an empty ledger: Used
// and Demand report nothing, every fit check passes and Refresh does
// nothing. Usage is not safe for concurrent mutation.
type Usage struct {
	// resolve looks up demands for instances with none on record; nil means
	// no instance demands anything beyond power unless Set records it.
	resolve func(id string) (ResourceVector, bool)
	// demand holds each recorded instance's demand vector.
	demand map[string]ResourceVector
	// used holds each node's subtree demand; nodes whose subtree demands
	// nothing are absent.
	used map[*Node]ResourceVector
}

// NewUsage builds the ledger for a tree: every placed instance's demand is
// resolved once through resolve (returning ok=false or a nil vector means
// power-only), validated and cloned, and subtree sums are folded bottom-up.
// A nil resolve yields an empty ledger without walking the tree. An invalid
// demand fails with ErrBadDimension or ErrReservedPower.
func NewUsage(tree *Node, resolve func(id string) (ResourceVector, bool)) (*Usage, error) {
	u := &Usage{resolve: resolve}
	if resolve == nil {
		return u, nil
	}
	var sum func(n *Node) error
	sum = func(n *Node) error {
		for _, c := range n.Children {
			if err := sum(c); err != nil {
				return err
			}
		}
		if err := u.Learn(n); err != nil {
			return err
		}
		u.refreshNode(n)
		return nil
	}
	if err := sum(tree); err != nil {
		return nil, err
	}
	return u, nil
}

// Resolve returns an instance's demand vector without recording it: inline
// when non-empty, else the vector on record, else the resolver's — validated
// and cloned. Nil means power-only.
func (u *Usage) Resolve(id string, inline ResourceVector) (ResourceVector, error) {
	d := inline
	if len(d) == 0 {
		if rec, ok := u.demand[id]; ok {
			return rec, nil
		}
		if u.resolve != nil {
			if v, ok := u.resolve(id); ok {
				d = v
			}
		}
	}
	if len(d) == 0 {
		return nil, nil
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("powertree: demand for instance %q: %w", id, err)
	}
	return d.Clone(), nil
}

// Set records an instance's demand vector, typically a Resolve result; nil
// forgets it. Subtree sums are untouched until Refresh.
func (u *Usage) Set(id string, d ResourceVector) {
	if d == nil {
		delete(u.demand, id)
		return
	}
	if u.demand == nil {
		u.demand = make(map[string]ResourceVector)
	}
	u.demand[id] = d
}

// Learn resolves and records the demand of every instance on n that has
// none on record — how residents moved onto a node behind the ledger's back
// are picked up. Demands already on record are kept.
func (u *Usage) Learn(n *Node) error {
	for _, id := range n.Instances {
		d, err := u.Resolve(id, nil)
		if err != nil {
			return err
		}
		u.Set(id, d)
	}
	return nil
}

// Refresh re-sums the subtree demand of each given node and of all its
// ancestors after instances were attached to, detached from or recorded on
// them. Each node sums its own instances, then its children, in tree
// order — NewUsage's order — so refreshed sums are bit-identical to a fresh
// ledger's. Shared ancestors are re-summed once per node; the extra passes
// only cost time. A ledger with nothing recorded does nothing.
func (u *Usage) Refresh(nodes ...*Node) {
	if u == nil || (len(u.demand) == 0 && len(u.used) == 0) {
		return
	}
	for _, n := range nodes {
		for ; n != nil; n = n.Parent() {
			u.refreshNode(n)
		}
	}
}

// refreshNode recomputes n's subtree sum from its instances' records and
// its children's sums, which must already be current.
func (u *Usage) refreshNode(n *Node) {
	var sum ResourceVector
	for _, id := range n.Instances {
		sum = sum.AddInPlace(u.demand[id])
	}
	for _, c := range n.Children {
		sum = sum.AddInPlace(u.used[c])
	}
	if sum == nil {
		delete(u.used, n)
		return
	}
	if u.used == nil {
		u.used = make(map[*Node]ResourceVector)
	}
	u.used[n] = sum
}

// Used returns the node's subtree demand: the per-dimension sum over every
// instance below it (nil when nothing there demands anything beyond power).
// The vector is owned by the ledger and must not be mutated.
func (u *Usage) Used(n *Node) ResourceVector {
	if u == nil {
		return nil
	}
	return u.used[n]
}

// Demand returns the demand on record for an instance; ok is false for
// unknown and power-only instances. The vector is owned by the ledger and
// must not be mutated.
func (u *Usage) Demand(id string) (ResourceVector, bool) {
	if u == nil {
		return nil, false
	}
	d, ok := u.demand[id]
	return d, ok
}

// PathFits reports whether every node from n up to, but excluding, stop
// can take demand in after releasing out (Node.CapacityFits against the
// node's current use). A nil stop checks n's whole root path.
func (u *Usage) PathFits(n, stop *Node, in, out ResourceVector) bool {
	for ; n != nil && n != stop; n = n.Parent() {
		if !n.CapacityFits(u.Used(n), in, out) {
			return false
		}
	}
	return true
}

// SwapFits reports whether exchanging an instance with demand da at node a
// for one with demand db at node b — da moves to b, db to a — keeps every
// declared capacity dimension within bounds on both root paths. Ancestors
// shared by a and b see no net change, so each path is checked only up to
// their lowest common ancestor.
func (u *Usage) SwapFits(a, b *Node, da, db ResourceVector) bool {
	if len(da) == 0 && len(db) == 0 {
		return true
	}
	stop := commonAncestor(a, b)
	return u.PathFits(a, stop, db, da) && u.PathFits(b, stop, da, db)
}

// commonAncestor returns the lowest node on both a's and b's root paths
// (nil for nodes of different trees).
func commonAncestor(a, b *Node) *Node {
	da, db := depth(a), depth(b)
	for ; da > db; da-- {
		a = a.parent
	}
	for ; db > da; db-- {
		b = b.parent
	}
	for a != b {
		a, b = a.parent, b.parent
	}
	return a
}

// depth counts n's ancestors.
func depth(n *Node) int {
	d := 0
	for n = n.parent; n != nil; n = n.parent {
		d++
	}
	return d
}
