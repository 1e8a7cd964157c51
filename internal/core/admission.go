package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Online admission: the runtime's arrival-stream path. Bootstrap places a
// whole fleet snapshot at once; deployments then churn one instance at a
// time. AdmitInstance scores an arriving instance from its stored telemetry
// (falling back to its service's reference trace below the quarantine
// floor, exactly like Bootstrap) and hands it to an asynchrony-aware
// placement.Online over the live tree. RetireInstance releases a departing
// instance. Both are safe for concurrent use — the HTTP layer calls them
// from request goroutines — and both refresh the per-level fragmentation
// gauges.

// AdmitRequest describes one arriving instance for Admit — the redesigned
// admission entry point (AdmitInstance remains as a positional shorthand).
//
// smoothop:immutable
type AdmitRequest struct {
	// ID and Service identify the instance; both are required.
	ID, Service string
	// AsOf is the telemetry time the scoring trace is read at; zero means
	// the latest Bootstrap/Tick time (the stored telemetry's clock, not the
	// wall clock).
	AsOf time.Time
	// TrainWeeks is the averaging window; < 1 means the framework default.
	TrainWeeks int
	// Demands optionally declares the instance's non-power resource demand
	// vector; it is validated, enforced against every capacity dimension the
	// tree declares, and remembered in the runtime's ledger until the
	// instance retires.
	Demands powertree.ResourceVector
}

// placementCfg assembles the placer options for admission views and
// tick-time remapping: the configured policy with the runtime's own demand
// ledger overlaid on the config's resolver (ledger wins). With no ledger
// entries and no configured resolver the config passes through untouched,
// keeping every multi-resource path inert.
//
// smoothop:locked mu
func (r *Runtime) placementCfg() placement.PolicyConfig {
	cfg := r.placeCfg
	if len(r.demands) == 0 && cfg.Demands == nil {
		return cfg
	}
	ledger := r.demands // allocated once at NewRuntime, mutated under mu
	fallback := cfg.Demands
	cfg.Demands = func(id string) (powertree.ResourceVector, bool) {
		if d, ok := ledger[id]; ok {
			return d, true
		}
		if fallback != nil {
			return fallback(id)
		}
		return nil, false
	}
	return cfg
}

// AdmitInstance places one arriving instance onto the live tree and returns
// the hosting leaf's name — shorthand for Admit with a positional request
// and no demand vector.
func (r *Runtime) AdmitInstance(id, service string, asOf time.Time, trainWeeks int) (string, error) {
	return r.Admit(AdmitRequest{ID: id, Service: service, AsOf: asOf, TrainWeeks: trainWeeks})
}

// Admit places one arriving instance onto the live tree and returns the
// hosting leaf's name. The scoring trace is the instance's averaged I-trace
// as of req.AsOf over req.TrainWeeks weeks; an instance below the
// quarantine floor is admitted on its service's reference trace instead of
// failing. Admission never displaces residents: if no leaf can take the
// instance without a breaker violation — or, when demands and capacities
// are declared, without overflowing a capacity dimension — the error wraps
// placement.ErrNoCapacity and the tree is unchanged.
func (r *Runtime) Admit(req AdmitRequest) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return "", ErrNotPlaced
	}
	id, service := req.ID, req.Service
	if id == "" || service == "" {
		return "", errors.New("core: admission needs an instance id and a service")
	}
	if err := req.Demands.Validate(); err != nil {
		return "", fmt.Errorf("core: admission demands for %q: %w", id, err)
	}
	asOf := req.AsOf
	if asOf.IsZero() {
		asOf = r.evalAsOf
	}
	trainWeeks := req.TrainWeeks
	if trainWeeks < 1 {
		trainWeeks = r.fw.cfg.trainWeeks()
	}
	if err := r.ensureOnline(asOf, trainWeeks); err != nil {
		return "", err
	}
	if _, ok := r.online.Leaf(id); ok {
		return "", fmt.Errorf("%w: %q", placement.ErrAlreadyAdmitted, id)
	}
	tr, q, quarantined, err := r.admissionTrace(id, service, asOf, trainWeeks)
	if err != nil {
		return "", err
	}
	r.onlineTraces[id] = tr
	leaf, err := r.online.Admit(placement.Instance{ID: id, Service: service, Demands: req.Demands})
	if err != nil {
		delete(r.onlineTraces, id)
		if errors.Is(err, placement.ErrNoCapacity) {
			obsRuntimeAdmissionRejects.Inc()
		}
		return "", err
	}
	r.services[id] = service
	r.quality[id] = q
	if len(req.Demands) > 0 {
		r.demands[id] = req.Demands.Clone()
	}
	if quarantined {
		r.onlineFilled[id] = true
		r.quarantined = append(r.quarantined, id)
		obsQuarantined.Set(float64(len(r.quarantined)))
	}
	obsRuntimeAdmissions.Inc()
	obsFragDeltaRefreshes.Inc()
	r.setFragGauges(r.online.Snapshot())
	r.invalidatePlanSnapshot()
	return leaf.Name, nil
}

// RetireInstance removes a previously placed instance from the live tree
// and returns the leaf that hosted it, dropping the instance from every
// per-instance record (demands, service, quality, quarantine). Unknown
// instances wrap placement.ErrUnknownInstance.
func (r *Runtime) RetireInstance(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return "", ErrNotPlaced
	}
	if r.online != nil {
		leaf, err := r.online.Retire(id)
		if err != nil {
			return "", err
		}
		delete(r.onlineTraces, id)
		delete(r.onlineFilled, id)
		r.forget(id)
		obsFragDeltaRefreshes.Inc()
		r.setFragGauges(r.online.Snapshot())
		return leaf.Name, nil
	}
	// No online view is live (e.g. right after Bootstrap or Tick): detach
	// directly; the next admission rebuilds its view from the store anyway.
	for _, leaf := range r.tree.Leaves() {
		for _, rid := range leaf.Instances {
			if rid != id {
				continue
			}
			if !leaf.Detach(id) {
				return "", fmt.Errorf("core: retire bookkeeping failed for %q", id)
			}
			r.forget(id)
			r.refreshFragGauges(r.traces)
			return leaf.Name, nil
		}
	}
	return "", fmt.Errorf("%w: %q", placement.ErrUnknownInstance, id)
}

// forget completes a retirement: it drops the instance from the runtime's
// per-instance records — so they stay bounded by the resident count under
// endless churn — counts the retirement and invalidates the plan snapshot.
//
// smoothop:locked mu
func (r *Runtime) forget(id string) {
	delete(r.demands, id)
	delete(r.services, id)
	delete(r.quality, id)
	for i, qid := range r.quarantined {
		if qid == id {
			// Copy rather than shift in place: a tick's DriftReport shares the
			// slice it was built from.
			r.quarantined = append(r.quarantined[:i:i], r.quarantined[i+1:]...)
			obsQuarantined.Set(float64(len(r.quarantined)))
			break
		}
	}
	obsRuntimeRetirements.Inc()
	r.invalidatePlanSnapshot()
}

// ensureOnline (re)builds the runtime's online-placement view: averaged
// I-traces for every current resident as of (asOf, trainWeeks), quarantined
// residents filled from reference traces, wrapped in a placement.Online with
// the asynchrony-aware policy. The view is cached between admissions with
// the same window; a Tick resyncs it (remapping moves instances).
//
// smoothop:locked mu
func (r *Runtime) ensureOnline(asOf time.Time, trainWeeks int) error {
	if r.online != nil && r.onlineAsOf.Equal(asOf) && r.onlineWeeks == trainWeeks {
		return nil
	}
	view, err := r.gradeView(r.tree.AllInstances(), func(id string) (timeseries.Series, tracestore.Quality, error) {
		return r.residentTrace(id, asOf, trainWeeks)
	})
	if err != nil {
		return fmt.Errorf("core: admission view: %w", err)
	}
	traces := view.traces
	filled := make(map[string]bool, len(view.quarantined))
	for _, id := range view.quarantined {
		filled[id] = true
	}
	online, err := placement.NewOnline(r.tree, placement.TraceFn(workload.SubPowerFn(traces)), r.placementCfg())
	if err != nil {
		return fmt.Errorf("core: admission view: %w", err)
	}
	r.online = online
	r.onlineTraces = traces
	r.onlineFilled = filled
	r.onlineAsOf = asOf
	r.onlineWeeks = trainWeeks
	// The new view aggregated the whole tree once; publish that, and drop
	// the cached planning snapshot — it captured the previous trace view.
	obsFragFullRefreshes.Inc()
	r.setFragGauges(online.Snapshot())
	r.invalidatePlanSnapshot()
	return nil
}

// residentTrace reads one resident's averaged I-trace and grade, treating a
// never-reported instance as an empty window rather than an error.
func (r *Runtime) residentTrace(id string, asOf time.Time, trainWeeks int) (timeseries.Series, tracestore.Quality, error) {
	tr, q, err := r.store.AveragedITraceQuality(id, asOf, trainWeeks)
	if errors.Is(err, tracestore.ErrUnknownInstance) {
		return timeseries.Series{}, tracestore.Quality{Grade: tracestore.GradeNoData}, nil
	}
	if err != nil {
		return timeseries.Series{}, tracestore.Quality{}, err
	}
	return tr, q, nil
}

// admissionTrace resolves the arriving instance's scoring trace and grade:
// its own averaged I-trace when healthy, otherwise a reference trace — the
// mean of the admission view's current healthy same-service residents, then
// of all its healthy residents. The boolean reports whether the fallback
// fired.
//
// smoothop:locked mu
func (r *Runtime) admissionTrace(id, service string, asOf time.Time, trainWeeks int) (timeseries.Series, tracestore.Quality, bool, error) {
	tr, q, err := r.residentTrace(id, asOf, trainWeeks)
	if err != nil {
		return timeseries.Series{}, q, false, fmt.Errorf("core: admission trace for %q: %w", id, err)
	}
	if !r.belowFloor(q) {
		return tr, q, false, nil
	}
	var same, fleet []timeseries.Series
	for _, rid := range r.tree.AllInstances() {
		if r.onlineFilled[rid] {
			continue
		}
		fleet = append(fleet, r.onlineTraces[rid])
		if r.services[rid] == service {
			same = append(same, r.onlineTraces[rid])
		}
	}
	ref, err := referenceTrace(same, fleet)
	return ref, q, true, err
}

// refreshFragGauges publishes the fragmentation gauges from one full
// aggregation of a Bootstrap/Tick trace view. Gauges are best-effort: a
// broken view leaves them at their last value rather than failing the
// operation.
//
// smoothop:locked mu
func (r *Runtime) refreshFragGauges(traces map[string]timeseries.Series) {
	aggs, err := r.tree.AggregateAll(workload.SubPowerFn(traces))
	if err != nil {
		return
	}
	obsFragFullRefreshes.Inc()
	r.setFragGauges(aggs)
}

// setFragGauges publishes per-level fragmentation rates computed from an
// aggregation snapshot. Best-effort, like refreshFragGauges.
//
// smoothop:locked mu
func (r *Runtime) setFragGauges(aggs *powertree.Aggregates) {
	rows, err := metrics.FragmentationRatesFrom(r.tree, aggs)
	if err != nil {
		return
	}
	for _, row := range rows {
		if g := fragGauge(row.Level); g != nil {
			g.Set(row.RatePct)
		}
	}
}

// traceView is the latest trace view: the admission view when one is live,
// otherwise the last Bootstrap/Tick traces.
//
// smoothop:locked mu
func (r *Runtime) traceView() map[string]timeseries.Series {
	if r.onlineTraces != nil {
		return r.onlineTraces
	}
	return r.traces
}

// FragmentationRates reports the tree's current power-fragmentation rates
// per level, computed from the latest trace view (the admission view's
// maintained aggregates when one is live, otherwise the last Bootstrap/Tick
// traces).
func (r *Runtime) FragmentationRates() ([]metrics.FragmentationRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	if r.online != nil {
		return metrics.FragmentationRatesFrom(r.tree, r.online.Snapshot())
	}
	return metrics.FragmentationRates(r.tree, workload.SubPowerFn(r.traces))
}

// MultiFragmentationRates is FragmentationRates extended with per-dimension
// stranded-capacity rows (metrics.MultiFragmentationRates), resolving
// instance demands the same way placement does: admission-time demands from
// the runtime's ledger win, then any resolver configured via
// RuntimeConfig.Placement.Demands. On a power-only tree — no declared
// capacities, or no known demands — it returns exactly the power rows.
func (r *Runtime) MultiFragmentationRates() ([]metrics.FragmentationRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	// The demand closure is only invoked inside this call, under mu.
	return metrics.MultiFragmentationRates(r.tree, workload.SubPowerFn(r.traceView()), r.placementCfg().Demands)
}
