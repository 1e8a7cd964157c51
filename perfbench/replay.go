package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

const week = 7 * 24 * time.Hour

// replaySeeds seeds are replayed per run: --seed, --seed+replaySeedStride,
// and so on. A replay's cost swings by a fifth from one seed to the next,
// so a run averages several.
const (
	replaySeeds      = 8
	replaySeedStride = 1000000
)

// smoothopdTicks is what
//
//	smoothopd -dc DC2 -scale 10 -step 30m -weeks 8 -faults light -seed N
//
// prints for each weekly tick, for the seeds recorded here.
var smoothopdTicks = map[int64]string{
	1: `week 3 tick: worst leaf DC2/s0/m1/b0/r0        score 1.115  Σ leaf peaks    216604  swaps 24  quarantined 0  trips 1  emergency throttles 16
week 4 tick: worst leaf DC2/s1/m1/b0/r2        score 1.124  Σ leaf peaks    216066  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 5 tick: worst leaf DC2/s3/m0/b0/r3        score 1.119  Σ leaf peaks    216185  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 6 tick: worst leaf DC2/s1/m0/b1/r3        score 1.122  Σ leaf peaks    216330  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 7 tick: worst leaf DC2/s1/m0/b1/r3        score 1.129  Σ leaf peaks    216027  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 8 tick: worst leaf DC2/s1/m0/b1/r3        score 1.118  Σ leaf peaks    216336  swaps 24  quarantined 0  trips 0  emergency throttles 0`,
	2: `week 3 tick: worst leaf DC2/s2/m1/b0/r3        score 1.113  Σ leaf peaks    216508  swaps 24  quarantined 0  trips 1  emergency throttles 16
week 4 tick: worst leaf DC2/s1/m1/b1/r1        score 1.120  Σ leaf peaks    217192  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 5 tick: worst leaf DC2/s2/m1/b1/r1        score 1.119  Σ leaf peaks    216109  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 6 tick: worst leaf DC2/s3/m0/b0/r2        score 1.116  Σ leaf peaks    216633  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 7 tick: worst leaf DC2/s0/m0/b1/r3        score 1.117  Σ leaf peaks    216204  swaps 24  quarantined 0  trips 0  emergency throttles 0
week 8 tick: worst leaf DC2/s0/m1/b0/r3        score 1.127  Σ leaf peaks    216005  swaps 24  quarantined 0  trips 0  emergency throttles 0`,
}

// tickLine formats a drift report exactly as smoothopd does with faults on.
func tickLine(weekNo int, rep *core.DriftReport) string {
	return fmt.Sprintf("week %d tick: worst leaf %-22s score %.3f  Σ leaf peaks %9.0f  swaps %d  quarantined %d  trips %d  emergency throttles %d",
		weekNo, rep.WorstNode, rep.WorstScore, rep.SumOfPeaks, len(rep.Swaps),
		len(rep.Quarantined), len(rep.ActiveTrips), len(rep.EmergencyThrottles))
}

// newServeStore is the trace store smoothopd configures for a replay.
func newServeStore() *tracestore.Store {
	return tracestore.New(tracestore.Config{
		Step:           serveStep,
		Retention:      time.Duration(serveWeeks+1) * week,
		RejectImpulses: true,
	})
}

// newServeRuntime wraps a fresh store around an empty tree with smoothopd's
// runtime settings.
func newServeRuntime(seed int64, store *tracestore.Store, tree *powertree.Node, inj *faults.Injector) (*core.Runtime, error) {
	return core.NewRuntime(
		core.New(core.Config{TopServices: topServices, Seed: seed}),
		store, tree,
		core.RuntimeConfig{ScoreFloor: scoreFloor, MaxSwapsPerTick: maxSwaps, Faults: inj},
	)
}

// ingestWindow feeds every reading in [from, to) through Runtime.Ingest in
// smoothopd's order: instance by instance, oldest reading first.
func ingestWindow(rt *core.Runtime, fleet *workload.Fleet, from, to time.Time) error {
	for _, inst := range fleet.Instances {
		tr := inst.Trace
		lo := int(from.Sub(tr.Start) / tr.Step)
		hi := int(to.Sub(tr.Start) / tr.Step)
		if lo < 0 {
			lo = 0
		}
		if hi > tr.Len() {
			hi = tr.Len()
		}
		for i := lo; i < hi; i++ {
			if err := rt.Ingest(inst.ID, tr.TimeAt(i), tr.Values[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// lightInjector is smoothopd's -faults light preset: seed+1000, plus a 48 h
// breaker trip at a quarter budget on the first leaf, a day after training.
func lightInjector(seed int64, tree *powertree.Node, trainEnd time.Time) (*faults.Injector, error) {
	p := faults.Light(seed + 1000).WithTrips(faults.TripWindow{
		Node:           tree.Leaves()[0].Name,
		Start:          trainEnd.Add(24 * time.Hour),
		Duration:       48 * time.Hour,
		BudgetFraction: 0.25,
	})
	return faults.New(p, serveStep, tree)
}

// replayTimes are a traced replay's core call timings.
type replayTimes struct {
	ingestWeek, bootstrap samples
}

// replayOnce runs the smoothopd weekly replay and returns its runtime, the
// tick lines and each Tick's latency.
func replayOnce(seed int64, fleet *workload.Fleet, empty *powertree.Node, lat *samples, times *replayTimes) (*core.Runtime, []string, error) {
	tree := empty.Clone()
	start := fleet.Instances[0].Trace.Start
	trainEnd := start.Add(trainWeeks * week)
	inj, err := lightInjector(seed, tree, trainEnd)
	if err != nil {
		return nil, nil, err
	}
	rt, err := newServeRuntime(seed, newServeStore(), tree, inj)
	if err != nil {
		return nil, nil, err
	}
	if err := ingestWindow(rt, fleet, start, trainEnd); err != nil {
		return nil, nil, fmt.Errorf("ingesting training weeks: %w", err)
	}
	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	t0 := time.Now()
	if err := rt.Bootstrap(instances, trainEnd, trainWeeks); err != nil {
		return nil, nil, fmt.Errorf("bootstrap: %w", err)
	}
	if times != nil {
		times.bootstrap.add(time.Since(t0))
	}
	var lines []string
	for w := trainWeeks; w < serveWeeks; w++ {
		from := start.Add(time.Duration(w) * week)
		to := from.Add(week)
		t0 := time.Now()
		if err := ingestWindow(rt, fleet, from, to); err != nil {
			return nil, nil, fmt.Errorf("ingesting week %d: %w", w+1, err)
		}
		if times != nil {
			times.ingestWeek.add(time.Since(t0))
		}
		if w == serveWeeks-1 {
			if err := rt.FlushFaults(); err != nil {
				return nil, nil, err
			}
		}
		t0 = time.Now()
		rep, err := rt.Tick(to, week)
		if err != nil {
			return nil, nil, fmt.Errorf("tick week %d: %w", w+1, err)
		}
		lat.add(time.Since(t0))
		lines = append(lines, tickLine(w+1, rep))
	}
	return rt, lines, nil
}

func runReplay(e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	cfg, err := serveDCConfig()
	if err != nil {
		return nil, err
	}
	var buildMs samples
	var fleet *workload.Fleet
	var empty *powertree.Node
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if fleet, empty, err = workload.BuildDC(cfg); err != nil {
			return nil, err
		}
		o.setup.add(time.Since(t0))
		buildMs.add(time.Since(t0))
	}
	e.report("# %s scale %d step %s, %d weeks, light faults + scheduled leaf trip: %d instances, %d leaves",
		cfg.Name, serveScale, serveStep, serveWeeks, len(fleet.Instances), len(empty.Leaves()))
	e.report("# 1 client, closed loop: Ingest weeks 1-2, Bootstrap, then Ingest + Tick per week")

	// A run replays replaySeeds seeds round robin, in whole rounds; each
	// seed's first replay is the reference its later replays must match.
	// The warm-up replay of the first seed is untimed.
	seeds := make([]int64, replaySeeds)
	for k := range seeds {
		seeds[k] = e.seed + int64(k)*replaySeedStride
	}
	refs := map[int64]string{}
	check := func(seed int64, lines []string) {
		got := strings.Join(lines, "\n")
		ref, ok := refs[seed]
		if !ok {
			refs[seed] = got
			e.report("check seed %d:\n%s", seed, got)
			if want, ok := smoothopdTicks[seed]; ok && got != want {
				o.fail("replay ticks differ from smoothopd's for seed %d:\n%s\nwant:\n%s", seed, got, want)
			}
			return
		}
		if got != ref {
			o.fail("seed %d replay ticks differ from its first replay:\n%s", seed, got)
		}
	}
	var warm samples
	o.attempted++
	_, lines, err := replayOnce(seeds[0], fleet, empty, &warm, nil)
	if err != nil {
		o.failed++
		o.fail("warm-up replay: %v", err)
		return o, nil
	}
	check(seeds[0], lines)

	measure := func(times *replayTimes) (ticks, replays samples, cpu time.Duration, alloc uint64) {
		before, cpu0 := memStats().TotalAlloc, cpuNow()
		var heapCPU time.Duration
		start := time.Now()
		for k := 0; k%replaySeeds != 0 || k == 0 || time.Since(start) < e.seconds; k++ {
			seed := seeds[k%replaySeeds]
			o.attempted++
			t0 := time.Now()
			rt, lines, err := replayOnce(seed, fleet, empty, &ticks, times)
			d := time.Since(t0)
			if err != nil {
				o.failed++
				o.fail("replay of seed %d: %v", seed, err)
				continue
			}
			check(seed, lines)
			replays.add(d)
			if times == nil && (k+1)%replaySeeds == 0 && time.Since(start) >= e.seconds {
				// The daemon keeps serving after its replay: the live heap
				// is read with the last replayed runtime still in hand.
				c0 := cpuNow()
				o.heapBytes = liveHeap()
				heapCPU = cpuNow() - c0
			}
			runtime.KeepAlive(rt)
		}
		return ticks, replays, cpuNow() - cpu0 - heapCPU, memStats().TotalAlloc - before
	}

	var ticks samples
	ticks, o.op, o.cpu, o.allocBytes = measure(nil)
	o.ops = len(o.op)
	e.report("e2e replay_s %.4f s (median of %d replays)", o.op.median(), len(o.op))
	e.report("e2e tick_ms %.4f ms (median of %d ticks)", ticks.median()*1e3, len(ticks))

	if e.trace {
		start, err := startLayers()
		if err != nil {
			return nil, err
		}
		var times replayTimes
		tticks, traced, _, _ := measure(&times)
		if err := start.finish(len(traced), o.layers); err != nil {
			return nil, err
		}
		o.layers["trace_overhead_pct"] = overheadPct(o.op.median(), traced.median())
		o.layers["core.tick_ms"] = tticks.median() * 1e3
		o.layers["workload.build_dc_ms"] = buildMs.median() * 1e3
		o.layers["core.ingest_week_ms"] = times.ingestWeek.median() * 1e3
		o.layers["core.bootstrap_ms"] = times.bootstrap.median() * 1e3
		reportLayers(e, o.layers)
	}
	o.reportCommon(e)
	return o, nil
}
