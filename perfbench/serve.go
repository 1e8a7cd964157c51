package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// probePairs bounds the direct layer probes of a traced serving run;
// planProbes is how many queries of each kind the planner probes evaluate.
const (
	probePairs = 1000
	planProbes = 15
)

// serveTimes are the core call timings of serving set-ups.
type serveTimes struct {
	build, ingestWeek, bootstrap samples
}

// servingSetup is one runtime bootstrapped with the deck's residents.
type servingSetup struct {
	fleet *workload.Fleet
	store *tracestore.Store
	rt    *core.Runtime
	asOf  time.Time
}

// setupServing generates the fleet, ingests the two training weeks of every
// instance and bootstraps the deck's residents. It returns the set-up's
// duration, which excludes building the deck (done on the first set-up).
func setupServing(deckSeed int64, cfg workload.DCConfig, deck *servingDeck, st *serveTimes) (*servingSetup, time.Duration, error) {
	t0 := time.Now()
	fleet, tree, err := workload.BuildDC(cfg)
	total := time.Since(t0)
	st.build.add(total)
	if err != nil {
		return nil, 0, err
	}
	service := make(map[string]string, len(fleet.Instances))
	for _, inst := range fleet.Instances {
		service[inst.ID] = inst.Service
	}
	if deck.Pairs == nil {
		var leaves []string
		for _, l := range tree.Leaves() {
			leaves = append(leaves, l.Name)
		}
		*deck = makeServingDeck(deckSeed, fleet.IDs(), service, fleet.Services(), leaves, deckPairs, deckPlans)
	}

	store := newServeStore()
	rt, err := newServeRuntime(serveFrameworkSeed, store, tree, nil)
	if err != nil {
		return nil, 0, err
	}
	start := fleet.Instances[0].Trace.Start
	for w := 0; w < trainWeeks; w++ {
		t0 := time.Now()
		if err := ingestWindow(rt, fleet, start.Add(time.Duration(w)*week), start.Add(time.Duration(w+1)*week)); err != nil {
			return nil, 0, fmt.Errorf("ingesting week %d: %w", w+1, err)
		}
		d := time.Since(t0)
		st.ingestWeek.add(d)
		total += d
	}
	residents := make([]placement.Instance, len(deck.Residents))
	for i, id := range deck.Residents {
		residents[i] = placement.Instance{ID: id, Service: service[id]}
	}
	asOf := start.Add(trainWeeks * week)
	t0 = time.Now()
	if err := rt.Bootstrap(residents, asOf, trainWeeks); err != nil {
		return nil, 0, fmt.Errorf("bootstrap: %w", err)
	}
	d := time.Since(t0)
	st.bootstrap.add(d)
	total += d
	return &servingSetup{fleet: fleet, store: store, rt: rt, asOf: asOf}, total, nil
}

// call sends one request through the handler in-process and times
// ServeHTTP alone.
func call(h http.Handler, method, target string, body []byte) (int, []byte, time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	return rec.Code, rec.Body.Bytes(), d
}

// admitBody is the POST /v1/instances body for a round's admission.
func admitBody(pr pair) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"service":%q}`, pr.AdmitID, pr.AdmitService))
}

// decodeStrict decodes exactly one JSON value with no unknown fields.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// errorEnvelope is the /v1 error shape.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// envelopeCode checks a non-2xx body is the documented error envelope and
// returns its code.
func envelopeCode(status int, body []byte) (string, error) {
	if status < 400 {
		return "", fmt.Errorf("status %d is neither the success status nor an error", status)
	}
	var env errorEnvelope
	if err := decodeStrict(body, &env); err != nil {
		return "", fmt.Errorf("status %d body is not the error envelope: %v", status, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		return "", fmt.Errorf("status %d envelope has an empty code or message", status)
	}
	return env.Error.Code, nil
}

// instanceOutcome checks an admission or retirement response: the success
// status with {"id","leaf"} naming the instance and a real leaf, or the
// error envelope. It returns the leaf, or the error code.
func instanceOutcome(status, want int, body []byte, id string, leaves map[string]bool) (leaf, code string, err error) {
	if status == want {
		var v struct {
			ID   string `json:"id"`
			Leaf string `json:"leaf"`
		}
		if err := decodeStrict(body, &v); err != nil {
			return "", "", fmt.Errorf("status %d body: %v", status, err)
		}
		if v.ID != id || !leaves[v.Leaf] {
			return "", "", fmt.Errorf("response %+v for %q names another instance or an unknown leaf", v, id)
		}
		return v.Leaf, "", nil
	}
	code, err = envelopeCode(status, body)
	return "", code, err
}

// planOutcome checks a /v1/plan response: 200 with a plan.Result of the
// asked kind carrying both reports, or the error envelope.
func planOutcome(status int, body []byte, q plan.Query) (ok bool, err error) {
	if status == http.StatusOK {
		var res plan.Result
		if err := decodeStrict(body, &res); err != nil {
			return false, fmt.Errorf("plan 200 body: %v", err)
		}
		if res.Kind != q.Kind || len(res.Before.Fragmentation) == 0 || len(res.After.Fragmentation) == 0 {
			return false, fmt.Errorf("plan result for %q is kind %q with %d/%d fragmentation rows",
				q.Kind, res.Kind, len(res.Before.Fragmentation), len(res.After.Fragmentation))
		}
		return true, nil
	}
	_, err = envelopeCode(status, body)
	return false, err
}

// pairResult is what one mutator round got back: the leaf on success, the
// error code otherwise.
type pairResult struct {
	admitLeaf, admitCode   string
	retireLeaf, retireCode string
}

// snapTimer wraps Runtime.PlanSnapshot as the planner's SnapshotFn and
// times each capture.
type snapTimer struct {
	rt  *core.Runtime
	mu  sync.Mutex
	lat samples
}

func (s *snapTimer) snapshot() (*plan.Snapshot, error) {
	t0 := time.Now()
	snap, err := s.rt.PlanSnapshot()
	d := time.Since(t0)
	s.mu.Lock()
	s.lat.add(d)
	s.mu.Unlock()
	return snap, err
}

// servePhase is one timed stretch of the serving deck.
type servePhase struct {
	admits, retires, plans samples
	requests, failed       int
	wall, cpu              time.Duration // excluding the heap reading
	alloc                  uint64
	heap                   uint64 // live heap after heapPairs pairs, if read
}

// servingRun drives one runtime through its handler.
type servingRun struct {
	e        *env
	o        *outcome
	deck     servingDeck
	leaves   map[string]bool
	mixed    bool
	results  []pairResult // every executed mutator round, in deck order
	nextPlan int
}

// phase runs the mutator (and, for plan-mixed, the planner) against h for
// e.seconds, continuing the deck where the last phase stopped. With
// readHeap the mutator runs at least heapPairs rounds and the live heap is
// read, with both clients paused, right after round heapPairs.
func (s *servingRun) phase(h http.Handler, readHeap bool) (servePhase, error) {
	var p servePhase
	var world sync.RWMutex // clients hold it shared per request; the heap reading takes it
	var stop atomic.Bool
	var pause, pauseCPU time.Duration
	var planErr error
	var wg sync.WaitGroup
	before, cpu0 := memStats().TotalAlloc, cpuNow()
	start := time.Now()

	// The planner keeps its own tallies; they join p once it has stopped.
	var plans samples
	var planRequests, planFailed int
	if s.mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && s.nextPlan < len(s.deck.Plans) {
				q := s.deck.Plans[s.nextPlan]
				s.nextPlan++
				body, err := json.Marshal(q)
				if err != nil {
					planErr = err
					return
				}
				world.RLock()
				status, resp, d := call(h, http.MethodPost, "/v1/plan", body)
				world.RUnlock()
				plans.add(d)
				ok, err := planOutcome(status, resp, q)
				if err != nil {
					planErr = err
					return
				}
				if !ok {
					planFailed++
				}
				planRequests++
			}
		}()
	}

	var err error
	for {
		i := len(s.results)
		done := time.Since(start)-pause >= s.e.seconds
		if i >= len(s.deck.Pairs) || (done && (!readHeap || i >= heapPairs)) {
			break
		}
		pr := s.deck.Pairs[i]
		var r pairResult
		world.RLock()
		status, resp, d := call(h, http.MethodPost, "/v1/instances", admitBody(pr))
		world.RUnlock()
		if r.admitLeaf, r.admitCode, err = instanceOutcome(status, http.StatusCreated, resp, pr.AdmitID, s.leaves); err != nil {
			break
		}
		if i > 0 { // round 0's admission builds the admission view
			p.admits.add(d)
		}
		world.RLock()
		status, resp, d = call(h, http.MethodDelete, "/v1/instances/"+pr.RetireID, nil)
		world.RUnlock()
		if r.retireLeaf, r.retireCode, err = instanceOutcome(status, http.StatusOK, resp, pr.RetireID, s.leaves); err != nil {
			break
		}
		p.retires.add(d)
		p.requests += 2
		for _, code := range []string{r.admitCode, r.retireCode} {
			if code != "" {
				p.failed++
			}
		}
		s.results = append(s.results, r)
		if readHeap && len(s.results) == heapPairs {
			t0, c0 := time.Now(), cpuNow()
			world.Lock()
			p.heap = liveHeap()
			world.Unlock()
			pause += time.Since(t0)
			pauseCPU += cpuNow() - c0
		}
	}
	stop.Store(true)
	wg.Wait()
	p.plans, p.requests, p.failed = plans, p.requests+planRequests, p.failed+planFailed
	p.wall = time.Since(start) - pause
	p.cpu = cpuNow() - cpu0 - pauseCPU
	p.alloc = memStats().TotalAlloc - before
	if err == nil {
		err = planErr
	}
	return p, err
}

// twinTimes are the latencies of the twin replay.
type twinTimes struct {
	admits, retires             samples // direct core calls
	servedAdmits, servedRetires samples // through a handler over the twin
	probedAdmits                samples // direct admissions of the probed rounds
}

// twinReplay repeats every executed round on a second runtime built the
// same way and checks it picks the same leaf, or fails, each time. With a
// served handler over the twin, odd rounds go through it and even rounds
// call the runtime directly, so the handler's own cost is taken against
// direct calls made in the same stretch of time. With a probe, each of the
// first probePairs rounds is then replayed on the standalone layers too.
func (s *servingRun) twinReplay(twin *core.Runtime, served http.Handler, probe *layerProbe) (twinTimes, error) {
	var t twinTimes
	for i, want := range s.results {
		pr := s.deck.Pairs[i]
		viaHTTP := served != nil && i%2 == 1
		var leaf string
		var failed bool
		var d time.Duration
		if viaHTTP {
			status, resp, dd := call(served, http.MethodPost, "/v1/instances", admitBody(pr))
			l, code, err := instanceOutcome(status, http.StatusCreated, resp, pr.AdmitID, s.leaves)
			if err != nil {
				return t, err
			}
			leaf, failed, d = l, code != "", dd
		} else {
			t0 := time.Now()
			l, err := twin.Admit(core.AdmitRequest{ID: pr.AdmitID, Service: pr.AdmitService})
			leaf, failed, d = l, err != nil, time.Since(t0)
		}
		if failed != (want.admitCode != "") || leaf != want.admitLeaf {
			s.o.fail("round %d: the twin admitted %s to %q (failed %v), the served runtime to %q (%s)", i, pr.AdmitID, leaf, failed, want.admitLeaf, want.admitCode)
			return t, nil
		}
		switch {
		case i == 0: // builds the admission view
		case viaHTTP:
			t.servedAdmits.add(d)
		default:
			t.admits.add(d)
			if probe != nil && i < probePairs {
				t.probedAdmits.add(d)
			}
		}

		if viaHTTP {
			status, resp, dd := call(served, http.MethodDelete, "/v1/instances/"+pr.RetireID, nil)
			l, code, err := instanceOutcome(status, http.StatusOK, resp, pr.RetireID, s.leaves)
			if err != nil {
				return t, err
			}
			leaf, failed, d = l, code != "", dd
			t.servedRetires.add(d)
		} else {
			t0 := time.Now()
			l, err := twin.RetireInstance(pr.RetireID)
			leaf, failed, d = l, err != nil, time.Since(t0)
			t.retires.add(d)
		}
		if failed != (want.retireCode != "") || leaf != want.retireLeaf {
			s.o.fail("round %d: the twin retired %s from %q (failed %v), the served runtime from %q (%s)", i, pr.RetireID, leaf, failed, want.retireLeaf, want.retireCode)
			return t, nil
		}

		if probe != nil && i < probePairs && want.admitCode == "" && want.retireCode == "" {
			if err := probe.round(pr, want.admitLeaf); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}

// checkResidents holds the runtime's resident count to the deck's
// bookkeeping: every successful admission adds one, every successful
// retirement removes one, so a run without failures ends where it started.
func (s *servingRun) checkResidents(rt *core.Runtime) {
	want := len(s.deck.Residents)
	for _, r := range s.results {
		if r.admitCode == "" {
			want++
		}
		if r.retireCode == "" {
			want--
		}
	}
	got := rt.Tree().InstanceCount()
	s.e.report("check residents: %d at set-up, %d after %d rounds", len(s.deck.Residents), got, len(s.results))
	if got != want {
		s.o.fail("runtime hosts %d instances after the deck, bookkeeping says %d", got, want)
	}
}

func runServing(e *env, mixed bool) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	cfg, err := serveDCConfig()
	if err != nil {
		return nil, err
	}
	s := &servingRun{e: e, o: o, mixed: mixed}
	var st serveTimes
	setup := func() (*servingSetup, error) {
		runtime.GC()
		env, d, err := setupServing(e.seed, cfg, &s.deck, &st)
		if err != nil {
			return nil, err
		}
		o.setup.add(d)
		return env, nil
	}
	// Set-up is repeated for its median: all but the last two set-ups are
	// discarded, then one runtime is served and one is the direct twin.
	for i := 0; i < setupReps-2; i++ {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	live, err := setup()
	if err != nil {
		return nil, err
	}
	s.leaves = map[string]bool{}
	for _, l := range live.rt.Tree().Leaves() {
		s.leaves[l.Name] = true
	}
	clients := "1 client (admit/retire), closed loop"
	if mixed {
		clients = "2 clients (admit/retire; plan mix of replace_service, add_instances x4, trip_breaker at 0.5), closed loops"
	}
	e.report("# %s scale %d step %s: %d instances, %d leaves, %d residents after Bootstrap; %s",
		cfg.Name, serveScale, serveStep, len(live.fleet.Instances), len(s.leaves), len(s.deck.Residents), clients)

	planner, err := plan.NewService(live.rt.PlanSnapshot, plan.Config{})
	if err != nil {
		return nil, err
	}
	h := core.HTTPHandlerWithPlanner(live.rt, planner, time.Now, obs.Default())
	heap0 := liveHeap()
	u, err := s.phase(h, true)
	if err != nil {
		o.fail("response check: %v", err)
	}
	o.attempted += u.requests
	o.failed += u.failed
	o.op = u.admits
	if mixed {
		o.op = u.plans
	}
	o.ops, o.cpu, o.allocBytes, o.heapBytes = u.requests, u.cpu, u.alloc, u.heap
	reportServing(e, u, heap0)

	var tphase servePhase
	var snaps *snapTimer
	if e.trace {
		snaps = &snapTimer{rt: live.rt}
		tplanner, err := plan.NewService(snaps.snapshot, plan.Config{})
		if err != nil {
			return nil, err
		}
		th := core.HTTPHandlerWithPlanner(live.rt, tplanner, time.Now, obs.Default())
		start, err := startLayers()
		if err != nil {
			return nil, err
		}
		if tphase, err = s.phase(th, false); err != nil {
			o.fail("response check: %v", err)
		}
		if err := start.finish(tphase.requests, o.layers); err != nil {
			return nil, err
		}
		o.attempted += tphase.requests
		o.failed += tphase.failed
	}
	s.checkResidents(live.rt)

	// The twin is built once the served runtime is no longer used.
	twin, err := setup()
	if err != nil {
		return nil, err
	}
	var served http.Handler
	var probe *layerProbe
	if e.trace {
		// The probe's tree is the bootstrapped placement, before any round.
		if probe, err = newLayerProbe(twin, twin.rt.Tree().Clone()); err != nil {
			return nil, err
		}
		twinPlanner, err := plan.NewService(twin.rt.PlanSnapshot, plan.Config{})
		if err != nil {
			return nil, err
		}
		served = core.HTTPHandlerWithPlanner(twin.rt, twinPlanner, time.Now, obs.Default())
	}
	tt, err := s.twinReplay(twin.rt, served, probe)
	if err != nil {
		o.fail("twin response check: %v", err)
	}
	o.reportCommon(e)
	if !e.trace {
		return o, nil
	}

	op := func(p servePhase) samples {
		if mixed {
			return p.plans
		}
		return p.admits
	}
	us := func(v float64) float64 { return v * 1e6 }
	ms := func(v float64) float64 { return v * 1e3 }
	L := o.layers
	L["trace_overhead_pct"] = overheadPct(op(u).median(), op(tphase).median())
	L["workload.build_dc_ms"] = ms(st.build.median())
	L["core.ingest_week_ms"] = ms(st.ingestWeek.median())
	L["core.bootstrap_ms"] = ms(st.bootstrap.median())
	L["core.admit_us"] = us(tt.admits.median())
	L["core.retire_us"] = us(tt.retires.median())
	L["http.admit_self_us"] = us(tt.servedAdmits.median() - tt.admits.median())
	L["http.retire_self_us"] = us(tt.servedRetires.median() - tt.retires.median())
	if mixed {
		L["core.plan_snapshot_us"] = us(snaps.lat.median())
		if err := s.probePlans(twin.rt, served); err != nil {
			return nil, err
		}
	}
	probe.finish(e, L)
	self := us(tt.probedAdmits.median()) - L["tracestore.averaged_itrace_us"] - L["placement.online_admit_us"] -
		L["powertree.delta_update_us"] - L["metrics.fragmentation_rates_from_us"]
	L["core.admit_self_us"] = self
	if self < 0 {
		e.report("FLAG core self time is negative (%.1f us): the layer probes cost more than the admission they split", self)
	}
	reportLayers(e, L)
	return o, nil
}

// reportServing prints the serving workloads' end-to-end lines.
func reportServing(e *env, p servePhase, heap0 uint64) {
	pct := func(name string, s samples, p float64, scale float64, unit string) {
		if v, ok := s.percentile(p); ok {
			e.report("e2e %s %.4f %s (n=%d)", name, v*scale, unit, len(s))
		} else {
			e.report("e2e %s not reported: fewer than %d of %d samples lie beyond it", name, minBeyond, len(s))
		}
	}
	e.report("e2e admit_p50_us %.4f us (n=%d)", p.admits.median()*1e6, len(p.admits))
	pct("admit_p99_us", p.admits, 99, 1e6, "us")
	e.report("e2e retire_p50_us %.4f us (n=%d)", p.retires.median()*1e6, len(p.retires))
	if len(p.plans) > 0 {
		e.report("e2e plan_p50_ms %.4f ms (n=%d)", p.plans.median()*1e3, len(p.plans))
		pct("plan_p99_ms", p.plans, 99, 1e3, "ms")
	}
	e.report("e2e serve_ops_per_s %.4f 1/s (%d requests in %.3f s)", float64(p.requests)/p.wall.Seconds(), p.requests, p.wall.Seconds())
	e.report("e2e heap_growth_mb %.4f MB (live heap after %d rounds minus after set-up)", (float64(p.heap)-float64(heap0))/1e6, heapPairs)
}

// layerProbe replays rounds on standalone copies of the lower layers: the
// twin's trace store, and a placement.Online plus a powertree.Aggregator
// over a clone of the twin's bootstrapped tree, with the same traces the
// runtime scores from.
type layerProbe struct {
	store  *tracestore.Store
	asOf   time.Time
	tree   *powertree.Node
	traces map[string]timeseries.Series
	online *placement.Online
	agg    *powertree.Aggregator

	itrace, admit, retire, diff, delta, frag samples
	rounds, sameLeaf                         int
}

func newLayerProbe(twin *servingSetup, boot *powertree.Node) (*layerProbe, error) {
	p := &layerProbe{store: twin.store, asOf: twin.asOf, tree: boot, traces: map[string]timeseries.Series{}}
	for _, id := range twin.fleet.IDs() {
		tr, _, err := twin.store.AveragedITraceQuality(id, twin.asOf, trainWeeks)
		if err != nil {
			return nil, fmt.Errorf("averaged I-trace of %s: %w", id, err)
		}
		p.traces[id] = tr
	}
	lookup := func(id string) (timeseries.Series, bool) {
		tr, ok := p.traces[id]
		return tr, ok
	}
	var err error
	if p.online, err = placement.NewOnline(boot, lookup, placement.PolicyConfig{}); err != nil {
		return nil, err
	}
	if p.agg, err = powertree.NewAggregator(boot, lookup); err != nil {
		return nil, err
	}
	return p, nil
}

// round times one round's calls into each layer: the admitted instance's
// averaged I-trace, Online.Admit, score.Differential against the chosen
// leaf's other residents, the aggregator's delta update and the
// fragmentation rates, then Online.Retire.
func (p *layerProbe) round(pr pair, runtimeLeaf string) error {
	t0 := time.Now()
	_, _, err := p.store.AveragedITraceQuality(pr.AdmitID, p.asOf, trainWeeks)
	p.itrace.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	leaf, err := p.online.Admit(placement.Instance{ID: pr.AdmitID, Service: pr.AdmitService})
	p.admit.add(time.Since(t0))
	if err != nil {
		return fmt.Errorf("standalone admit of %s: %w", pr.AdmitID, err)
	}
	p.rounds++
	if leaf.Name == runtimeLeaf {
		p.sameLeaf++
	}
	var peers []timeseries.Series
	for _, id := range leaf.Instances {
		if id != pr.AdmitID {
			peers = append(peers, p.traces[id])
		}
	}
	t0 = time.Now()
	_, err = score.Differential(p.traces[pr.AdmitID], peers)
	p.diff.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	snap, err := p.refresh(leaf)
	p.delta.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	_, err = metrics.FragmentationRatesFrom(p.tree, snap)
	p.frag.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	leaf, err = p.online.Retire(pr.RetireID)
	p.retire.add(time.Since(t0))
	if err != nil {
		return fmt.Errorf("standalone retire of %s: %w", pr.RetireID, err)
	}
	_, err = p.refresh(leaf)
	return err
}

func (p *layerProbe) refresh(leaf *powertree.Node) (*powertree.Aggregates, error) {
	if err := p.agg.MarkDirty(leaf); err != nil {
		return nil, err
	}
	return p.agg.Update()
}

func (p *layerProbe) finish(e *env, L map[string]float64) {
	e.report("probe standalone placement.Online chose the runtime's leaf in %d of %d admissions", p.sameLeaf, p.rounds)
	L["tracestore.averaged_itrace_us"] = p.itrace.median() * 1e6
	L["placement.online_admit_us"] = p.admit.median() * 1e6
	L["placement.online_retire_us"] = p.retire.median() * 1e6
	L["score.differential_us"] = p.diff.median() * 1e6
	L["powertree.delta_update_us"] = p.delta.median() * 1e6
	L["metrics.fragmentation_rates_from_us"] = p.frag.median() * 1e6
}

// probePlans evaluates the first planProbes queries of each kind from the
// deck directly on a plan.Service over the twin, then the same queries
// through the handler h over the twin, on a placement no mutator is
// changing.
func (s *servingRun) probePlans(rt *core.Runtime, h http.Handler) error {
	svc, err := plan.NewService(rt.PlanSnapshot, plan.Config{})
	if err != nil {
		return err
	}
	taken := map[string]int{}
	var queries []plan.Query
	for _, q := range s.deck.Plans {
		if taken[q.Kind] < planProbes {
			taken[q.Kind]++
			queries = append(queries, q)
		}
	}
	ctx := context.Background()
	if _, err := svc.Evaluate(ctx, queries[0]); err != nil { // captures the snapshot
		return err
	}
	// Each query runs directly and through the handler, in alternating
	// order so neither side always finds the caches warm; the handler's own
	// cost is the median of the per-query differences.
	var self samples
	perKind := map[string]*samples{}
	for i, q := range queries {
		if perKind[q.Kind] == nil {
			perKind[q.Kind] = &samples{}
		}
		body, err := json.Marshal(q)
		if err != nil {
			return err
		}
		var direct, served time.Duration
		for side := 0; side < 2; side++ {
			if (side+i)%2 == 0 {
				t0 := time.Now()
				_, err := svc.Evaluate(ctx, q)
				direct = time.Since(t0)
				if err != nil {
					return fmt.Errorf("direct plan %s: %w", q.Kind, err)
				}
				continue
			}
			var status int
			var resp []byte
			status, resp, served = call(h, http.MethodPost, "/v1/plan", body)
			if ok, err := planOutcome(status, resp, q); err != nil || !ok {
				return fmt.Errorf("plan %s over HTTP on the twin: status %d, %v", q.Kind, status, err)
			}
		}
		perKind[q.Kind].add(direct)
		self.add(served - direct)
	}
	L := s.o.layers
	for _, k := range sortedKeys(perKind) {
		L["plan."+k+"_ms"] = perKind[k].median() * 1e3
	}
	L["http.plan_self_us"] = self.median() * 1e6
	return nil
}
