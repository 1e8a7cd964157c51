package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/capping"
	"repro/internal/detmap"
	"repro/internal/faults"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Runtime is SmoothOperator operated as a continuously-running service
// (Fig. 7 plus §3.6): power telemetry streams into a trace store, an initial
// workload-aware placement is bootstrapped from collected history, and a
// periodic tick re-evaluates fragmentation on fresh data, remapping
// incrementally when drift appears.
//
// The runtime degrades gracefully instead of failing when telemetry turns
// bad: traces are graded (tracestore.Quality), instances whose raw coverage
// falls below the quarantine floor are scored from a service-level reference
// trace instead of their own repaired trace, transient store errors are
// retried with bounded backoff, and breaker violations during injected trip
// windows escalate into an emergency capping throttle that releases when the
// trip clears.
type Runtime struct {
	fw    *Framework
	store *tracestore.Store
	tree  *powertree.Node

	// scoreFloor triggers remapping when any leaf's asynchrony score falls
	// below it; maxSwaps bounds each repair.
	scoreFloor float64
	maxSwaps   int
	// minCoverage is the quarantine floor on raw trace coverage.
	minCoverage float64
	// retries bounds ingest retries on transient store errors; backoff is
	// the first retry's wait (doubling each attempt).
	retries int
	backoff time.Duration

	// faults, when set, perturbs every reading on its way into the store.
	faults *faults.Injector
	// placeCfg carries the configured placement policy options; the runtime
	// overlays its own demand ledger on the config's resolver when building
	// admission views (see placementCfg). Never modified after construction.
	placeCfg placement.PolicyConfig
	// capper is the emergency throttle runtime; created at Bootstrap when
	// fault injection is configured.
	capper *capping.Controller
	// sleep is injectable so tests don't wait out real backoff.
	sleep func(time.Duration)

	// mu guards every field that changes after construction: the HTTP layer
	// calls the admission entry points and the read accessors from request
	// goroutines while Bootstrap/Tick mutate the same state. The guarded
	// fields are annotated below and the contract is machine-checked by the
	// guardedby analyzer (see internal/analysis).
	mu sync.Mutex

	// services maps each resident instance → service, learned at Bootstrap
	// and admission and dropped at retirement; it names the reference-trace
	// pool a quarantined instance falls back to.
	services map[string]string //smoothop:guardedby mu
	// demands is the runtime's resource-demand ledger: the validated demand
	// vector of every placed instance that declared one (at Bootstrap or
	// admission). It outlives the cached admission view, so rebuilt views
	// re-learn demands through placementCfg's resolver. The map is allocated
	// once and mutated in place — placementCfg's closure captures it.
	demands map[string]powertree.ResourceVector //smoothop:guardedby mu
	// quality and quarantined reflect the most recent Bootstrap or Tick,
	// plus later admissions; retirements drop their entries.
	quality     map[string]tracestore.Quality //smoothop:guardedby mu
	quarantined []string                      //smoothop:guardedby mu
	// emergency tracks nodes currently under an emergency cap; lastTrips is
	// the injected trip windows seen by the latest tick.
	emergency map[string]bool     //smoothop:guardedby mu
	lastTrips []faults.TripWindow //smoothop:guardedby mu

	placed  bool           //smoothop:guardedby mu
	history []*DriftReport //smoothop:guardedby mu
	// evalAsOf is the runtime's own clock: the asOf of the latest Bootstrap
	// or Tick. Admissions that do not name a time use it, so callers follow
	// the replayed telemetry rather than the wall clock.
	evalAsOf time.Time //smoothop:guardedby mu

	// traces is the latest Bootstrap/Tick scoring view (references filled),
	// kept for fragmentation reporting between admissions.
	traces map[string]timeseries.Series //smoothop:guardedby mu
	// online is the lazily-built admission view over the live tree; nil
	// until the first AdmitInstance. Its Snapshot is the one maintained
	// per-node aggregate the fragmentation gauges read between ticks.
	// onlineTraces is its trace view; onlineFilled marks the residents whose
	// view trace is a reference fill (quarantined in the view's window), so
	// reference means are drawn from the others only. onlineAsOf/onlineWeeks
	// key the cache.
	online       *placement.Online            //smoothop:guardedby mu
	onlineTraces map[string]timeseries.Series //smoothop:guardedby mu
	onlineFilled map[string]bool              //smoothop:guardedby mu
	onlineAsOf   time.Time                    //smoothop:guardedby mu
	onlineWeeks  int                          //smoothop:guardedby mu

	// planSnap is the cached what-if planning snapshot, shared by concurrent
	// /v1/plan queries between placement mutations (see plan.go).
	planSnap *plan.Snapshot //smoothop:guardedby mu
}

// RuntimeConfig tunes the runtime. It is a value handed over once at
// NewRuntime and never modified afterwards.
//
// smoothop:immutable
type RuntimeConfig struct {
	// ScoreFloor is the leaf asynchrony score below which the monitor
	// remaps. 0 means 1.2; negative is rejected with ErrBadScoreFloor.
	ScoreFloor float64
	// MaxSwapsPerTick bounds each incremental repair. 0 means 32; negative
	// is rejected with ErrBadMaxSwaps.
	MaxSwapsPerTick int
	// MinCoverage is the raw-coverage fraction below which an instance is
	// quarantined and scored from its service's reference trace. 0 means
	// 0.5 (the tracestore GradePoor threshold); values outside [0, 1) are
	// rejected with ErrBadMinCoverage.
	MinCoverage float64
	// IngestRetries is how many times a transient store failure
	// (tracestore.ErrTransient) is retried before Ingest gives up. 0 means
	// 3; negative is rejected with ErrBadRetries.
	IngestRetries int
	// RetryBackoff is the wait before the first ingest retry, doubling each
	// attempt. 0 means no wait (right for the in-memory store); negative is
	// rejected with ErrBadRetries.
	RetryBackoff time.Duration
	// Faults, when non-nil, injects telemetry and infrastructure faults
	// into the runtime: readings pass through the injector on Ingest, and
	// its trip windows drive the emergency capping path at Tick.
	Faults *faults.Injector
	// Placement carries the redesigned placement policy options (kind, seed,
	// FARB weights, demand resolver) used for admission views and tick-time
	// remapping. The zero value is the paper's asynchrony policy with no
	// demand model — bit-identical to the power-only runtime. Demands
	// supplied at admission time take precedence over the configured
	// resolver. Unknown kinds and invalid weights are rejected at NewRuntime
	// with placement.ErrUnknownPolicyKind / score.ErrBadWeights.
	Placement placement.PolicyConfig
}

// Errors returned by the runtime.
var (
	ErrNotPlaced      = errors.New("core: runtime has no placement yet (call Bootstrap)")
	ErrAlreadyPlaced  = errors.New("core: runtime already bootstrapped")
	ErrBadScoreFloor  = errors.New("core: ScoreFloor must not be negative")
	ErrBadMaxSwaps    = errors.New("core: MaxSwapsPerTick must not be negative")
	ErrBadMinCoverage = errors.New("core: MinCoverage must be in [0, 1)")
	ErrBadRetries     = errors.New("core: ingest retry settings must not be negative")
	ErrAllQuarantined = errors.New("core: every instance quarantined — no healthy trace to reference")
)

// NewRuntime assembles a runtime around a framework, a telemetry store and
// an empty power tree.
func NewRuntime(fw *Framework, store *tracestore.Store, tree *powertree.Node, cfg RuntimeConfig) (*Runtime, error) {
	if fw == nil || store == nil || tree == nil {
		return nil, errors.New("core: runtime needs a framework, a store and a tree")
	}
	if tree.InstanceCount() != 0 {
		return nil, errors.New("core: runtime tree must start empty")
	}
	if cfg.ScoreFloor < 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBadScoreFloor, cfg.ScoreFloor)
	}
	if cfg.MaxSwapsPerTick < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadMaxSwaps, cfg.MaxSwapsPerTick)
	}
	if cfg.MinCoverage < 0 || cfg.MinCoverage >= 1 {
		return nil, fmt.Errorf("%w: got %v", ErrBadMinCoverage, cfg.MinCoverage)
	}
	if cfg.IngestRetries < 0 {
		return nil, fmt.Errorf("%w: IngestRetries %d", ErrBadRetries, cfg.IngestRetries)
	}
	if cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("%w: RetryBackoff %v", ErrBadRetries, cfg.RetryBackoff)
	}
	if _, err := placement.NewPolicy(cfg.Placement); err != nil {
		return nil, fmt.Errorf("core: placement policy: %w", err)
	}
	floor := cfg.ScoreFloor
	if floor == 0 {
		floor = 1.2
	}
	swaps := cfg.MaxSwapsPerTick
	if swaps == 0 {
		swaps = 32
	}
	minCov := cfg.MinCoverage
	if minCov == 0 {
		minCov = 0.5
	}
	retries := cfg.IngestRetries
	if retries == 0 {
		retries = 3
	}
	return &Runtime{
		fw: fw, store: store, tree: tree,
		scoreFloor: floor, maxSwaps: swaps,
		minCoverage: minCov, retries: retries, backoff: cfg.RetryBackoff,
		faults:    cfg.Faults,
		placeCfg:  cfg.Placement,
		sleep:     time.Sleep,
		services:  make(map[string]string),
		demands:   make(map[string]powertree.ResourceVector),
		quality:   make(map[string]tracestore.Quality),
		emergency: make(map[string]bool),
	}, nil
}

// Ingest forwards one power reading into the store. With fault injection
// configured the reading first passes through the injector — it may be
// dropped, corrupted, skewed or delayed — and whatever the injector delivers
// is appended. Transient store failures are retried up to the configured
// bound with doubling backoff before surfacing.
func (r *Runtime) Ingest(id string, at time.Time, watts float64) error {
	if r.faults == nil {
		return r.appendWithRetry(id, at, watts)
	}
	for _, rd := range r.faults.Feed(id, at, watts) {
		if err := r.appendWithRetry(rd.ID, rd.At, rd.Watts); err != nil {
			return err
		}
	}
	return nil
}

// FlushFaults drains the injector's reorder buffer into the store — call it
// once at the end of a replay so delayed readings are not lost. Without
// fault injection it is a no-op.
func (r *Runtime) FlushFaults() error {
	if r.faults == nil {
		return nil
	}
	for _, rd := range r.faults.Flush() {
		if err := r.appendWithRetry(rd.ID, rd.At, rd.Watts); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runtime) appendWithRetry(id string, at time.Time, watts float64) error {
	wait := r.backoff
	for attempt := 0; ; attempt++ {
		err := r.storeAppend(id, at, watts, attempt)
		if err == nil {
			obsIngestSamples.Inc()
			return nil
		}
		if !errors.Is(err, tracestore.ErrTransient) || attempt >= r.retries {
			return err
		}
		obsIngestRetries.Inc()
		if wait > 0 {
			r.sleep(wait)
			wait *= 2
		}
	}
}

func (r *Runtime) storeAppend(id string, at time.Time, watts float64, attempt int) error {
	if r.faults != nil && r.faults.TransientAppendFailure(id, at, attempt) {
		return fmt.Errorf("core: ingesting %q at %v: %w", id, at, tracestore.ErrTransient)
	}
	return r.store.Append(id, at, watts)
}

// Tree exposes the current (placed) tree for inspection.
func (r *Runtime) Tree() *powertree.Node { return r.tree }

// Placed reports whether Bootstrap has run.
func (r *Runtime) Placed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.placed
}

// History returns a snapshot of the drift reports of every tick so far.
func (r *Runtime) History() []*DriftReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*DriftReport(nil), r.history...)
}

// Quarantined returns the resident instances the latest Bootstrap or Tick
// (or a later admission) scored from reference traces instead of their own
// telemetry.
func (r *Runtime) Quarantined() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.quarantined...)
}

// InstanceQuality reports the trace quality the latest Bootstrap or Tick
// observed for an instance.
func (r *Runtime) InstanceQuality(id string) (tracestore.Quality, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.quality[id]
	return q, ok
}

// ActiveTrips returns the injected breaker-trip windows that overlapped the
// latest tick's window.
func (r *Runtime) ActiveTrips() []faults.TripWindow {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]faults.TripWindow(nil), r.lastTrips...)
}

// EmergencyNodes returns the nodes currently held under an emergency cap,
// sorted.
func (r *Runtime) EmergencyNodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return detmap.SortedKeys(r.emergency)
}

// Bootstrap computes averaged I-traces from the store's history ending at
// asOf and places the given instances workload-aware. It can only run once.
// Instances whose history is missing or below the quarantine floor are
// placed using their service's reference trace (the mean of healthy peers)
// rather than failing the whole placement.
func (r *Runtime) Bootstrap(instances []placement.Instance, asOf time.Time, trainWeeks int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.placed {
		return ErrAlreadyPlaced
	}
	if trainWeeks < 1 {
		trainWeeks = r.fw.cfg.trainWeeks()
	}
	for _, inst := range instances {
		r.services[inst.ID] = inst.Service
		// Demands enter the runtime's ledger here; the batch placer itself is
		// power-only, so capacity dimensions bind at admission and remap time.
		if len(inst.Demands) > 0 {
			if err := inst.Demands.Validate(); err != nil {
				return fmt.Errorf("core: bootstrap demands for %q: %w", inst.ID, err)
			}
			r.demands[inst.ID] = inst.Demands.Clone()
		}
	}
	ids := make([]string, len(instances))
	for i, inst := range instances {
		ids[i] = inst.ID
	}
	view, err := r.gradeView(ids, func(id string) (timeseries.Series, tracestore.Quality, error) {
		return r.residentTrace(id, asOf, trainWeeks)
	})
	if err != nil {
		return fmt.Errorf("core: bootstrap: %w", err)
	}
	avg := view.traces
	placer := placement.WorkloadAware{
		TopServices:      r.fw.cfg.topServices(),
		ClustersPerChild: r.fw.cfg.ClustersPerChild,
		Seed:             r.fw.cfg.Seed,
	}
	lookup := placement.TraceFn(func(id string) (timeseries.Series, bool) {
		tr, ok := avg[id]
		return tr, ok
	})
	if err := placer.Place(r.tree, instances, lookup); err != nil {
		return fmt.Errorf("core: bootstrap placement: %w", err)
	}
	r.quality = view.quality
	r.quarantined = view.quarantined
	r.traces = avg
	r.refreshFragGauges(avg)
	obsQuarantined.Set(float64(len(view.quarantined)))
	if r.faults != nil {
		capper, err := capping.New(r.tree, capping.Config{SustainSteps: 1})
		if err != nil {
			return err
		}
		r.capper = capper
	}
	r.placed = true
	r.evalAsOf = asOf
	r.invalidatePlanSnapshot()
	return nil
}

// gradedView is one scoring view of a set of instances: every instance's
// trace — its own when healthy, a reference fill when quarantined — and
// grade, plus the quarantined instances in input order.
type gradedView struct {
	traces      map[string]timeseries.Series
	quality     map[string]tracestore.Quality
	quarantined []string
}

// gradeView reads every instance's trace through read and grades it.
// Instances below the quarantine floor are filled with a reference trace:
// the mean of their service's healthy peers, falling back to the fleet-wide
// mean when the whole service is dark. No healthy trace anywhere is
// ErrAllQuarantined.
//
// smoothop:locked mu
func (r *Runtime) gradeView(ids []string, read func(id string) (timeseries.Series, tracestore.Quality, error)) (gradedView, error) {
	v := gradedView{
		traces:  make(map[string]timeseries.Series, len(ids)),
		quality: make(map[string]tracestore.Quality, len(ids)),
	}
	byService := make(map[string][]timeseries.Series)
	var healthy []timeseries.Series
	for _, id := range ids {
		tr, q, err := read(id)
		if err != nil {
			return gradedView{}, fmt.Errorf("trace for %q: %w", id, err)
		}
		v.quality[id] = q
		if r.belowFloor(q) {
			v.quarantined = append(v.quarantined, id)
			continue
		}
		v.traces[id] = tr
		byService[r.services[id]] = append(byService[r.services[id]], tr)
		healthy = append(healthy, tr)
	}
	for _, id := range v.quarantined {
		ref, err := referenceTrace(byService[r.services[id]], healthy)
		if err != nil {
			return gradedView{}, err
		}
		v.traces[id] = ref
	}
	return v, nil
}

// referenceTrace is a quarantined instance's stand-in trace: the mean of its
// service's healthy traces, else the fleet-wide healthy mean.
func referenceTrace(service, fleet []timeseries.Series) (timeseries.Series, error) {
	ref, ok := meanSeries(service)
	if !ok {
		ref, ok = meanSeries(fleet)
	}
	if !ok {
		return timeseries.Series{}, ErrAllQuarantined
	}
	obsFallbackTraces.Inc()
	return ref, nil
}

// belowFloor reports whether a trace grade falls below the quarantine floor,
// so the instance is scored from a reference trace instead of its own.
func (r *Runtime) belowFloor(q tracestore.Quality) bool {
	return q.Grade == tracestore.GradeNoData || q.Coverage < r.minCoverage
}

// despike rejects single-slot impulses from a materialised trace: a sample
// more than twice the larger of its two neighbours is a sensor glitch, not
// workload — genuine power peaks are broad at the store's sampling rates —
// and is clamped to that neighbour. The filter is the identity on clean
// traces (no smooth signal doubles in one slot), so scoring clean and
// faulted telemetry stays comparable.
func despike(tr timeseries.Series) timeseries.Series {
	v := tr.Values
	if len(v) < 3 {
		return tr
	}
	cleaned := append([]float64(nil), v...)
	for i := range v {
		var m float64
		switch i {
		case 0:
			m = v[1]
		case len(v) - 1:
			m = v[len(v)-2]
		default:
			m = math.Max(v[i-1], v[i+1])
		}
		if cleaned[i] > 2*m {
			cleaned[i] = m
		}
	}
	return timeseries.New(tr.Start, tr.Step, cleaned)
}

// meanSeries folds same-shaped traces into their pointwise mean.
func meanSeries(traces []timeseries.Series) (timeseries.Series, bool) {
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

// Tick evaluates the placement against the telemetry window [asOf−window,
// asOf) and remaps if fragmentation re-appeared. The resulting drift report
// is appended to the history and returned.
//
// Degradation semantics: every instance's window is graded, instances below
// the quarantine floor are scored from their service's reference trace, and
// when injected breaker-trip windows overlap the tick the tree's breakers
// are re-checked at the reduced budgets — violations escalate into an
// emergency capping throttle that releases once the trip clears.
func (r *Runtime) Tick(asOf time.Time, window time.Duration) (*DriftReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	timer := obsTickSpan.Start()
	if window <= 0 {
		window = 7 * 24 * time.Hour
	}
	from := asOf.Add(-window)
	view, err := r.gradeView(r.tree.AllInstances(), func(id string) (timeseries.Series, tracestore.Quality, error) {
		tr, q, err := r.store.SnapshotQuality(id, from, asOf)
		return despike(tr), q, err
	})
	if err != nil {
		return nil, fmt.Errorf("core: tick: %w", err)
	}
	fresh := view.traces
	rep, err := r.fw.AdaptWithPolicy(r.tree, fresh, r.scoreFloor, r.maxSwaps, r.placementCfg())
	if err != nil {
		return nil, err
	}
	rep.Quarantined = view.quarantined
	r.quality = view.quality
	r.quarantined = view.quarantined
	obsQuarantined.Set(float64(len(view.quarantined)))
	// The remap may have moved instances between leaves. Instead of dropping
	// the cached admission view wholesale, resync only the swapped leaves
	// (no swaps means the placement is untouched and the view stays valid
	// as-is); the gauges are refreshed from the tick's fresh window.
	r.retargetOnline(rep.Swaps)
	r.traces = fresh
	r.evalAsOf = asOf
	r.refreshFragGauges(fresh)
	r.invalidatePlanSnapshot()

	if err := r.emergencyStep(rep, from, asOf, fresh); err != nil {
		return nil, err
	}

	r.history = append(r.history, rep)
	obsTicks.Inc()
	obsTickSwaps.Add(uint64(len(rep.Swaps)))
	timer.End()
	return rep, nil
}

// retargetOnline reconciles the cached admission view with the tree after a
// tick's remap. With no swaps the placement is unchanged and the view is
// kept untouched; otherwise only the swapped leaves are resynced (their
// residents' traces are already in the view's trace map — swaps move
// existing residents). Any reconciliation failure — a swapped leaf that
// cannot be found, a resident the view cannot resolve — drops the view
// wholesale, restoring the old rebuild-on-next-admission behaviour.
//
// The retained view stays keyed at its original (onlineAsOf, onlineWeeks)
// window: its traces ARE that window's telemetry, so retirements and
// explicitly windowed admissions reuse it immediately, while a zero-asOf
// admission after the tick re-keys to the new evalAsOf and rebuilds.
//
// smoothop:locked mu
func (r *Runtime) retargetOnline(swaps []placement.Swap) {
	if r.online == nil || len(swaps) == 0 {
		return
	}
	seen := make(map[string]bool, 2*len(swaps))
	var leaves []*powertree.Node
	for _, sw := range swaps {
		for _, name := range [2]string{sw.NodeA, sw.NodeB} {
			if seen[name] {
				continue
			}
			seen[name] = true
			leaf := r.tree.Find(name)
			if leaf == nil {
				r.dropOnline()
				return
			}
			leaves = append(leaves, leaf)
		}
	}
	if err := r.online.Resync(leaves...); err != nil {
		r.dropOnline()
		return
	}
	obsOnlineResyncs.Inc()
}

// dropOnline discards the cached admission view; the next AdmitInstance
// rebuilds it from the store.
//
// smoothop:locked mu
func (r *Runtime) dropOnline() {
	r.online = nil
	r.onlineTraces = nil
	r.onlineFilled = nil
	obsOnlineDrops.Inc()
}

// emergencyStep runs the injected-trip escalation path: check breakers at
// trip-reduced budgets and drive the capping controller. It fills the
// report's ActiveTrips, BreakerTrips and EmergencyThrottles.
//
// smoothop:locked mu
func (r *Runtime) emergencyStep(rep *DriftReport, from, asOf time.Time, fresh map[string]timeseries.Series) error {
	if r.faults == nil || r.capper == nil {
		r.lastTrips = nil
		return nil
	}
	trips := r.faults.TripsOverlapping(from, asOf)
	r.lastTrips = trips
	rep.ActiveTrips = trips

	// The lowest backup-feed fraction wins when windows overlap on a node.
	factor := make(map[string]float64)
	for _, tp := range trips {
		if f, ok := factor[tp.Node]; !ok || tp.Budget() < f {
			factor[tp.Node] = tp.Budget()
		}
	}
	if len(factor) > 0 {
		breakerTrips, err := r.breakersUnder(factor, fresh)
		if err != nil {
			return err
		}
		rep.BreakerTrips = breakerTrips
		obsBreakerTrips.Add(uint64(len(breakerTrips)))
	}

	// Step the capper when budgets are reduced, or when a previous tick left
	// caps armed and the trip has since cleared (so they can release).
	if len(factor) == 0 && len(r.emergency) == 0 {
		return nil
	}
	nominal := make(map[string]float64)
	r.tree.Walk(func(n *powertree.Node) {
		if _, ok := factor[n.Name]; ok {
			nominal[n.Name] = n.Budget
		}
	})
	var override func(node string) (float64, bool)
	if len(factor) > 0 {
		override = func(node string) (float64, bool) {
			f, ok := factor[node]
			if !ok {
				return 0, false
			}
			return nominal[node] * f, true
		}
	}
	throttles, events, err := r.capper.StepWithBudgets(peakReader(fresh), override)
	if err != nil {
		return err
	}
	rep.EmergencyThrottles = throttles
	obsEmergencyThrottles.Add(uint64(len(throttles)))
	for _, ev := range events {
		if ev.Armed {
			r.emergency[ev.Node] = true
		} else {
			delete(r.emergency, ev.Node)
		}
	}
	return nil
}

// breakersUnder re-checks the tree's breakers with tripped nodes scaled to
// their backup-feed budgets, restoring the nominal budgets afterwards.
func (r *Runtime) breakersUnder(factor map[string]float64, fresh map[string]timeseries.Series) ([]powertree.BreakerTrip, error) {
	saved := make(map[string]float64, len(factor))
	r.tree.Walk(func(n *powertree.Node) {
		if f, ok := factor[n.Name]; ok {
			saved[n.Name] = n.Budget
			n.Budget *= f
		}
	})
	defer r.tree.Walk(func(n *powertree.Node) {
		if b, ok := saved[n.Name]; ok {
			n.Budget = b
		}
	})
	return r.tree.CheckBreakers(powertree.PowerFn(workload.SubPowerFn(fresh)), 2*r.store.Step())
}

// peakReader views a window's traces as capping state: an instance draws
// its window peak and can be throttled to half of it; everything is
// backend-class (the runtime has no workload-class channel yet).
func peakReader(fresh map[string]timeseries.Series) capping.Reader {
	return func(id string) (capping.InstanceState, bool) {
		tr, ok := fresh[id]
		if !ok || tr.Len() == 0 {
			return capping.InstanceState{}, false
		}
		p := tr.Peak()
		return capping.InstanceState{Power: p, MinPower: 0.5 * p, Priority: capping.PriorityBackend}, true
	}
}
