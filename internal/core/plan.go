package core

import (
	"fmt"

	"repro/internal/plan"
)

// What-if planning wiring: the runtime exports snapshot-isolated captures of
// its placement for internal/plan, so POST /v1/plan queries evaluate against
// a copy without holding the runtime lock or blocking Tick/admissions.
//
// Snapshots are cached under mu and invalidated by every placement or
// trace-view mutation (Bootstrap, Tick, admissions, retirements, admission-
// view rebuilds). Between mutations, every concurrent planner shares one
// snapshot — and with it the lazily computed "before" report — so a burst of
// operator queries costs one O(nodes + instances) capture, not one per
// request.

// PlanSnapshot returns the current placement as a plan.Snapshot: a private
// clone of the tree, the freshest trace view (the cached admission view
// when one is live, otherwise the latest Bootstrap/Tick traces — the same
// preference order as FragmentationRates) and the residents' declared
// demands. The snapshot is immutable; the
// runtime may keep mutating after the capture without affecting it.
func (r *Runtime) PlanSnapshot() (*plan.Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	if r.planSnap != nil {
		return r.planSnap, nil
	}
	// Residents' demands resolve the way placement resolves them; with no
	// ledger entries and no configured resolver there is nothing to copy.
	// The resolver is only invoked inside NewSnapshot, under mu.
	snap, err := plan.NewSnapshot(r.tree, r.traceView(), r.services, r.placementCfg().Demands, r.evalAsOf, r.store.Step())
	if err != nil {
		return nil, fmt.Errorf("core: plan snapshot: %w", err)
	}
	r.planSnap = snap
	return snap, nil
}

// invalidatePlanSnapshot drops the cached snapshot after a mutation; the
// next PlanSnapshot re-captures. Snapshots already handed out stay valid —
// they own their state — they just describe the pre-mutation placement.
//
// smoothop:locked mu
func (r *Runtime) invalidatePlanSnapshot() {
	r.planSnap = nil
}
