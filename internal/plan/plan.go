// Package plan answers what-if planning queries against snapshot-isolated
// copies of a running placement: "what happens to peak power, fragmentation
// and breaker violations if I re-place service X, admit N more instances, or
// lose a feeder to its backup budget?" (HsuDMT18 §5–6 asks exactly these
// questions offline; a planning service answers them while the runtime keeps
// ticking).
//
// The isolation contract is copy-on-write. A Snapshot captures the placement
// once — the power tree's topology, budgets and instance lists are cloned
// (cheap: names and string slices), while the trace view, whose float64
// payloads dominate memory, is shared by reference and treated as immutable
// (every consumer down the stack — placement.Online, powertree aggregation,
// capping — clones before in-place arithmetic). Each query evaluation then
// works on a further private clone of the node structure, so one snapshot
// serves many concurrent planners and no query ever observes another query's
// mutations, let alone the live runtime's. Planners therefore never block
// the runtime's Tick or admission path: the only synchronized work is the
// O(nodes + instances) metadata copy at snapshot time.
//
// Results are deterministic: instances are re-placed in tree order, policies
// are seeded, aggregation is bit-identical at any worker count, and every
// slice in a Result is sorted — two evaluations of the same query on the
// same snapshot marshal to identical bytes.
package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/capping"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// Query kinds accepted by Evaluate.
const (
	KindReplaceService = "replace_service"
	KindAddInstances   = "add_instances"
	KindTripBreaker    = "trip_breaker"
)

// Errors returned by query evaluation. The HTTP layer maps them onto the
// uniform error envelope (bad_request / unknown_service / unknown_node).
var (
	ErrBadQuery       = errors.New("plan: bad query")
	ErrUnknownService = errors.New("plan: unknown service")
	ErrUnknownNode    = errors.New("plan: unknown node")
	ErrNilTree        = errors.New("plan: snapshot needs a tree")
	ErrBadStep        = errors.New("plan: snapshot step must be positive")
	ErrMissingTrace   = errors.New("plan: snapshot trace view is missing a resident")
)

// Query is one what-if question. Kind selects the scenario; the other
// fields parameterize it (unused fields are ignored by Evaluate but rejected
// as unknown keys by the HTTP layer's strict decoder when misspelled).
type Query struct {
	// Kind is one of KindReplaceService, KindAddInstances, KindTripBreaker.
	Kind string `json:"kind"`

	// Service names the service whose instances replace_service re-places.
	Service string `json:"service,omitempty"`

	// Count and Archetype parameterize add_instances: Count synthetic
	// instances are admitted, each drawing the mean trace of the archetype
	// service's current residents.
	Count     int    `json:"count,omitempty"`
	Archetype string `json:"archetype,omitempty"`

	// Node, Start, DurationSeconds and BudgetFraction schedule the
	// trip_breaker scenario as a faults.TripWindow: while the window
	// overlaps the snapshot's telemetry window the node runs at
	// BudgetFraction of its nominal budget (0 means the TripWindow default,
	// 0.5). A zero Start means the whole telemetry window; a zero duration
	// with a non-zero Start means until the window's end.
	Node            string    `json:"node,omitempty"`
	Start           time.Time `json:"start,omitempty"`
	DurationSeconds float64   `json:"duration_seconds,omitempty"`
	BudgetFraction  float64   `json:"budget_fraction,omitempty"`

	// Policy picks the online placement policy for replace_service and
	// add_instances: "" or "asynchrony" (default), "best-fit", or "random"
	// (seeded by Seed).
	Policy string `json:"policy,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// validate rejects malformed queries up front with ErrBadQuery, so every
// later failure is a genuine evaluation problem.
func (q Query) validate() error {
	switch q.Kind {
	case KindReplaceService:
		if q.Service == "" {
			return fmt.Errorf(`%w: replace_service needs "service"`, ErrBadQuery)
		}
	case KindAddInstances:
		if q.Archetype == "" {
			return fmt.Errorf(`%w: add_instances needs "archetype"`, ErrBadQuery)
		}
		if q.Count < 1 {
			return fmt.Errorf(`%w: add_instances needs "count" >= 1, got %d`, ErrBadQuery, q.Count)
		}
	case KindTripBreaker:
		if q.Node == "" {
			return fmt.Errorf(`%w: trip_breaker needs "node"`, ErrBadQuery)
		}
		if q.BudgetFraction < 0 || q.BudgetFraction > 1 {
			return fmt.Errorf(`%w: "budget_fraction" must be in [0, 1], got %v`, ErrBadQuery, q.BudgetFraction)
		}
		if q.DurationSeconds < 0 {
			return fmt.Errorf(`%w: "duration_seconds" must not be negative`, ErrBadQuery)
		}
	case "":
		return fmt.Errorf(`%w: missing "kind"`, ErrBadQuery)
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadQuery, q.Kind)
	}
	switch q.Policy {
	case "", "asynchrony", "best-fit", "random", "farb":
	default:
		return fmt.Errorf("%w: unknown policy %q", ErrBadQuery, q.Policy)
	}
	return nil
}

// policy builds the placement policy options a query asked for. The query's
// policy names map 1:1 onto placement.PolicyKind values; an empty policy is
// the asynchrony default.
func (q Query) policy() placement.PolicyConfig {
	return placement.PolicyConfig{Kind: placement.PolicyKind(q.Policy), Seed: q.Seed}
}

// policyName is the name reported in results (the default made explicit).
func (q Query) policyName() string {
	if q.Policy == "" {
		return "asynchrony"
	}
	return q.Policy
}

// FragmentationRow is the wire form of one level's power-fragmentation
// share (see internal/metrics).
type FragmentationRow struct {
	Level           string  `json:"level"`
	CapacityWatts   float64 `json:"capacity_watts"`
	HeadroomWatts   float64 `json:"headroom_watts"`
	AdmissibleWatts float64 `json:"admissible_watts"`
	StrandedWatts   float64 `json:"stranded_watts"`
	RatePct         float64 `json:"rate_pct"`
}

// BreakerViolation is the wire form of one sustained over-budget episode.
type BreakerViolation struct {
	Node              string  `json:"node"`
	Level             string  `json:"level"`
	StartSlot         int     `json:"start_slot"`
	DurationSeconds   float64 `json:"duration_seconds"`
	PeakOverdrawWatts float64 `json:"peak_overdraw_watts"`
}

// Report summarizes one side (before or after) of a what-if evaluation.
type Report struct {
	// SumOfLeafPeaksWatts is Σ leaf peak aggregate power — the paper's
	// fragmentation indicator #1 at the RPP level.
	SumOfLeafPeaksWatts float64 `json:"sum_of_leaf_peaks_watts"`
	// Fragmentation is the per-level power-fragmentation report, in
	// root-to-leaf level order.
	Fragmentation []FragmentationRow `json:"fragmentation"`
	// BreakerViolations are the sustained over-budget episodes found by
	// scanning every node's aggregate against its (possibly trip-reduced)
	// budget, sorted by node then start.
	BreakerViolations []BreakerViolation `json:"breaker_violations"`
}

// TripView is the wire form of the trip window a trip_breaker query
// scheduled.
type TripView struct {
	Node           string    `json:"node"`
	Start          time.Time `json:"start"`
	Until          time.Time `json:"until"`
	BudgetFraction float64   `json:"budget_fraction"`
	// Applied reports whether the window overlapped the snapshot's
	// telemetry window (a trip entirely outside it changes nothing).
	Applied bool `json:"applied"`
}

// Result is the answer to one what-if query. Before describes the snapshot
// as captured; After describes it with the scenario applied. Kind-specific
// fields are zero for other kinds.
type Result struct {
	Kind   string    `json:"kind"`
	AsOf   time.Time `json:"as_of"`
	Policy string    `json:"policy,omitempty"`

	Before Report `json:"before"`
	After  Report `json:"after"`

	// replace_service: how many instances were re-placed, how many landed
	// on a different leaf, and which could not be placed anywhere (in tree
	// order of the original placement).
	Replaced    int      `json:"replaced,omitempty"`
	Moved       int      `json:"moved,omitempty"`
	Unplaceable []string `json:"unplaceable,omitempty"`

	// add_instances: how many synthetic instances were admitted before the
	// first capacity rejection.
	Admitted int `json:"admitted,omitempty"`
	Rejected int `json:"rejected,omitempty"`

	// trip_breaker: the scheduled window plus the emergency-capping impact
	// at the reduced budget.
	Trip      *TripView `json:"trip,omitempty"`
	Throttles int       `json:"throttles,omitempty"`
	ShedWatts float64   `json:"shed_watts,omitempty"`
}

// Snapshot is an immutable, isolated capture of a placement: a private
// clone of the power tree plus a shared read-only trace view. Snapshots are
// safe for concurrent Evaluate calls; the first caller to need the "before"
// report computes it once and every later query on the snapshot reuses it.
type Snapshot struct {
	tree     *powertree.Node
	traces   map[string]timeseries.Series
	services map[string]string
	asOf     time.Time
	step     time.Duration

	// beforeOnce guards the lazily computed baseline report, shared by
	// every query on this snapshot (sync.Once publication).
	beforeOnce sync.Once
	before     Report
	beforeErr  error
}

// NewSnapshot captures the given placement. The tree is deep-cloned and the
// maps are copied, so the caller's structures may keep mutating afterwards;
// the Series values are shared by reference and must never be mutated in
// place (the repo-wide aggregation convention). Every instance hosted on
// the tree must resolve through traces. step is the telemetry sampling
// interval; breaker scans use a sustain of twice the step, mirroring the
// runtime's convention.
func NewSnapshot(tree *powertree.Node, traces map[string]timeseries.Series, services map[string]string, asOf time.Time, step time.Duration) (*Snapshot, error) {
	if tree == nil {
		return nil, ErrNilTree
	}
	if step <= 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBadStep, step)
	}
	for _, id := range tree.AllInstances() {
		if _, ok := traces[id]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrMissingTrace, id)
		}
	}
	tcopy := make(map[string]timeseries.Series, len(traces))
	for id, tr := range traces {
		tcopy[id] = tr
	}
	scopy := make(map[string]string, len(services))
	for id, svc := range services {
		scopy[id] = svc
	}
	obsSnapshots.Inc()
	return &Snapshot{
		tree:     tree.Clone(),
		traces:   tcopy,
		services: scopy,
		asOf:     asOf,
		step:     step,
	}, nil
}

// AsOf returns the evaluation time the snapshot was captured at.
func (s *Snapshot) AsOf() time.Time { return s.asOf }

// sustain is the breaker-scan episode length: twice the sampling step, the
// same convention the runtime uses for trip re-checks.
func (s *Snapshot) sustain() time.Duration { return 2 * s.step }

// powerFn views the snapshot's traces (plus an optional overlay of
// synthetic instances) as a powertree.PowerFn.
func (s *Snapshot) powerFn(extra map[string]timeseries.Series) powertree.PowerFn {
	base, over := s.traces, extra // locals so the closure captures no receiver state
	return func(id string) (timeseries.Series, bool) {
		if over != nil {
			if tr, ok := over[id]; ok {
				return tr, true
			}
		}
		tr, ok := base[id]
		return tr, ok
	}
}

// report aggregates a (scratch) tree once and summarizes it.
func (s *Snapshot) report(tree *powertree.Node, extra map[string]timeseries.Series, workers int) (Report, error) {
	aggs, err := tree.AggregateAllParallel(s.powerFn(extra), workers)
	if err != nil {
		return Report{}, fmt.Errorf("plan: aggregating: %w", err)
	}
	return s.reportFrom(aggs)
}

// reportFrom summarizes an aggregation snapshot of a (scratch) tree: Σ leaf
// peaks, per-level fragmentation, breaker violations at current budgets.
func (s *Snapshot) reportFrom(aggs *powertree.Aggregates) (Report, error) {
	tree := aggs.Root()
	rows, err := metrics.FragmentationRatesFrom(tree, aggs)
	if err != nil {
		return Report{}, fmt.Errorf("plan: fragmentation: %w", err)
	}
	rep := Report{
		SumOfLeafPeaksWatts: aggs.SumOfPeaks(powertree.RPP),
		Fragmentation:       make([]FragmentationRow, 0, len(rows)),
		BreakerViolations:   []BreakerViolation{},
	}
	for _, row := range rows {
		rep.Fragmentation = append(rep.Fragmentation, FragmentationRow{
			Level:           row.Level.String(),
			CapacityWatts:   row.Capacity,
			HeadroomWatts:   row.Headroom,
			AdmissibleWatts: row.Admissible,
			StrandedWatts:   row.StrandedWatts,
			RatePct:         row.RatePct,
		})
	}
	for _, trip := range aggs.CheckBreakers(s.sustain()) {
		rep.BreakerViolations = append(rep.BreakerViolations, BreakerViolation{
			Node:              trip.Node,
			Level:             trip.Level.String(),
			StartSlot:         trip.Start,
			DurationSeconds:   trip.Duration.Seconds(),
			PeakOverdrawWatts: trip.PeakOverdraw,
		})
	}
	return rep, nil
}

// baseline returns the snapshot's "before" report, computed once and shared
// by every query on the snapshot.
func (s *Snapshot) baseline(workers int) (Report, error) {
	s.beforeOnce.Do(func() {
		s.before, s.beforeErr = s.report(s.tree, nil, workers)
	})
	return s.before, s.beforeErr
}

// Evaluate answers one query against the snapshot. The evaluation runs
// entirely on a private clone of the snapshot's tree, checks ctx between
// incremental placement steps (so a deadline bounds even large queries),
// and is deterministic: identical (snapshot, query, workers) evaluations
// produce identical results, and results are additionally bit-identical
// across worker counts.
func (s *Snapshot) Evaluate(ctx context.Context, q Query, workers int) (*Result, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("plan: evaluating %s: %w", q.Kind, err)
	}
	before, err := s.baseline(workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: q.Kind, AsOf: s.asOf, Before: before}
	switch q.Kind {
	case KindReplaceService:
		err = s.evalReplaceService(ctx, q, res)
	case KindAddInstances:
		err = s.evalAddInstances(ctx, q, res)
	case KindTripBreaker:
		err = s.evalTripBreaker(q, workers, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// evalReplaceService detaches every instance of the service from a scratch
// clone and re-admits them one at a time through placement.Online with the
// query's policy, in tree order of the original placement.
func (s *Snapshot) evalReplaceService(ctx context.Context, q Query, res *Result) error {
	scratch := s.tree.Clone()
	var ids []string
	for _, id := range scratch.AllInstances() {
		if s.services[id] == q.Service {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("%w: %q has no placed instances", ErrUnknownService, q.Service)
	}
	oldLeaf := scratch.InstanceLeaves()
	member := make(map[string]bool, len(ids))
	for _, id := range ids {
		member[id] = true
	}
	for _, leaf := range scratch.Leaves() {
		// Detach back to front so indices stay valid while filtering.
		for i := len(leaf.Instances) - 1; i >= 0; i-- {
			if member[leaf.Instances[i]] {
				leaf.Detach(leaf.Instances[i])
			}
		}
	}
	online, err := placement.NewOnline(scratch, placement.TraceFn(s.powerFn(nil)), q.policy())
	if err != nil {
		return fmt.Errorf("plan: replace_service view: %w", err)
	}
	res.Policy = q.policyName()
	res.Unplaceable = []string{}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("plan: re-placing %q: %w", q.Service, err)
		}
		leaf, err := online.Admit(placement.Instance{ID: id, Service: q.Service})
		if errors.Is(err, placement.ErrNoCapacity) {
			res.Unplaceable = append(res.Unplaceable, id)
			continue
		}
		if err != nil {
			return fmt.Errorf("plan: re-placing %q: %w", id, err)
		}
		res.Replaced++
		if leaf.Name != oldLeaf[id] {
			res.Moved++
		}
	}
	after, err := s.reportFrom(online.Snapshot())
	if err != nil {
		return err
	}
	res.After = after
	return nil
}

// syntheticID names the i-th synthetic instance of an add_instances query.
// The "plan~" prefix keeps the namespace disjoint from real fleet IDs
// (workload generators never emit '~').
func syntheticID(archetype string, i int) string {
	return fmt.Sprintf("plan~%s~%06d", archetype, i)
}

// evalAddInstances admits Count synthetic instances of the archetype
// service, each drawing the mean trace of the archetype's current
// residents, until capacity runs out. Since every synthetic instance draws
// the same trace, the first ErrNoCapacity decides all that follow.
func (s *Snapshot) evalAddInstances(ctx context.Context, q Query, res *Result) error {
	scratch := s.tree.Clone()
	var peers []timeseries.Series
	for _, id := range scratch.AllInstances() {
		if s.services[id] == q.Archetype {
			peers = append(peers, s.traces[id])
		}
	}
	tr, ok := meanOf(peers)
	if !ok {
		return fmt.Errorf("%w: archetype %q has no placed instances with aligned traces", ErrUnknownService, q.Archetype)
	}
	extra := make(map[string]timeseries.Series, q.Count)
	online, err := placement.NewOnline(scratch, placement.TraceFn(s.powerFn(extra)), q.policy())
	if err != nil {
		return fmt.Errorf("plan: add_instances view: %w", err)
	}
	res.Policy = q.policyName()
	for i := 0; i < q.Count; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("plan: admitting synthetic %q instances: %w", q.Archetype, err)
		}
		id := syntheticID(q.Archetype, i)
		extra[id] = tr
		if _, err := online.Admit(placement.Instance{ID: id, Service: q.Archetype}); err != nil {
			delete(extra, id)
			if errors.Is(err, placement.ErrNoCapacity) {
				res.Rejected = q.Count - res.Admitted
				break
			}
			return fmt.Errorf("plan: admitting %q: %w", id, err)
		}
		res.Admitted++
	}
	after, err := s.reportFrom(online.Snapshot())
	if err != nil {
		return err
	}
	res.After = after
	return nil
}

// evalTripBreaker schedules a faults.TripWindow on the named node and
// reports the breaker and emergency-capping impact of running it at the
// backup-feed budget over the snapshot's telemetry window.
func (s *Snapshot) evalTripBreaker(q Query, workers int, res *Result) error {
	scratch := s.tree.Clone()
	node := scratch.Find(q.Node)
	if node == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, q.Node)
	}
	dur := time.Duration(q.DurationSeconds * float64(time.Second))
	trip := faults.TripWindow{Node: q.Node, Start: q.Start, Duration: dur, BudgetFraction: q.BudgetFraction}
	start, end, haveWindow := s.window()
	applied := true
	tripStart, tripEnd := trip.Start, trip.Start.Add(trip.Duration)
	if trip.Start.IsZero() {
		tripStart, tripEnd = start, end
	} else {
		if trip.Duration == 0 {
			tripEnd = end
		}
		applied = haveWindow && tripStart.Before(end) && start.Before(tripEnd)
	}
	res.Trip = &TripView{
		Node:           q.Node,
		Start:          tripStart,
		Until:          tripEnd,
		BudgetFraction: trip.Budget(),
		Applied:        applied,
	}
	if applied {
		node.Budget *= trip.Budget()
	}
	after, err := s.report(scratch, nil, workers)
	if err != nil {
		return err
	}
	res.After = after
	if !applied {
		return nil
	}
	// Emergency-capping impact: one controller step at the reduced budget,
	// with every instance drawing its window peak — the same state the
	// runtime's emergency path feeds the capper.
	capper, err := capping.New(scratch, capping.Config{SustainSteps: 1})
	if err != nil {
		return fmt.Errorf("plan: trip_breaker capper: %w", err)
	}
	throttles, _, err := capper.Step(s.peakReader())
	if err != nil {
		return fmt.Errorf("plan: trip_breaker capping step: %w", err)
	}
	res.Throttles = len(throttles)
	for _, th := range throttles {
		res.ShedWatts += th.Shed
	}
	return nil
}

// window returns the snapshot's telemetry window [start, end), taken from
// the first placed instance's trace (every trace in one snapshot shares the
// window). ok is false when the tree hosts no instances.
func (s *Snapshot) window() (start, end time.Time, ok bool) {
	ids := s.tree.AllInstances()
	if len(ids) == 0 {
		return time.Time{}, time.Time{}, false
	}
	tr := s.traces[ids[0]]
	if tr.Len() == 0 {
		return time.Time{}, time.Time{}, false
	}
	return tr.Start, tr.Start.Add(time.Duration(tr.Len()) * tr.Step), true
}

// peakReader views the snapshot's traces as capping state: each instance
// draws its window peak and can be throttled to half of it (backend class)
// — mirroring the runtime's emergency-capping reader.
func (s *Snapshot) peakReader() capping.Reader {
	traces := s.traces
	return func(id string) (capping.InstanceState, bool) {
		tr, ok := traces[id]
		if !ok || tr.Len() == 0 {
			return capping.InstanceState{}, false
		}
		p := tr.Peak()
		return capping.InstanceState{Power: p, MinPower: 0.5 * p, Priority: capping.PriorityBackend}, true
	}
}

// meanOf folds same-shaped traces into their pointwise mean. ok is false
// for an empty or misaligned set.
func meanOf(traces []timeseries.Series) (timeseries.Series, bool) {
	if len(traces) == 0 {
		return timeseries.Series{}, false
	}
	n := traces[0].Len()
	vals := make([]float64, n)
	for _, tr := range traces {
		if tr.Len() != n {
			return timeseries.Series{}, false
		}
		for i, v := range tr.Values {
			vals[i] += v
		}
	}
	for i := range vals {
		vals[i] /= float64(len(traces))
	}
	return timeseries.New(traces[0].Start, traces[0].Step, vals), true
}
