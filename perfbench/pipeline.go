package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/detmap"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// setupReps is how many times every workload sets up; setup_s is their
// median. Each set-up starts from a collected heap, so none pays for the
// garbage of the one before.
const setupReps = 7

// stepTolerance is how far the five Optimize step timings may sum from
// core.optimize_ms, as a share of it. Optimize also splits the test week
// and clones two trees, which the steps do not cover.
const stepTolerance = 0.15

// fig10RPP is EXPERIMENTS.md's Fig. 10 RPP peak reduction (%) for DC1-DC3
// at scale 4, 10-minute step and seed 1, to one decimal.
var fig10RPP = [3]float64{3.4, 5.8, 13.4}

// dcInput is one datacenter's fleet and empty tree, built once in set-up.
type dcInput struct {
	cfg   workload.DCConfig
	fleet *workload.Fleet
	tree  *powertree.Node
}

func buildPipelineInputs(buildMs *samples) ([]dcInput, error) {
	var dcs []dcInput
	for _, name := range workload.AllDCs {
		cfg, err := pipelineDC(name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		fleet, tree, err := workload.BuildDC(cfg)
		buildMs.add(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", name, err)
		}
		dcs = append(dcs, dcInput{cfg: cfg, fleet: fleet, tree: tree})
	}
	return dcs, nil
}

func (d dcInput) framework(seed int64) *core.Framework {
	return core.New(core.Config{
		TopServices: topServices,
		Seed:        seed,
		Baseline:    placement.Oblivious{MixFraction: d.cfg.BaselineMix},
		Workers:     workers,
	})
}

// passOutput is what one 3-DC pass produced, reduced to what the checks
// need.
type passOutput struct {
	digest  uint64
	reports [][]metrics.LevelPeakReport
}

// passTimes are the per-DC core call timings of a traced pass.
type passTimes struct {
	optimize, reshape time.Duration
}

// pipelinePass runs Optimize then Reshape for every datacenter. times, when
// non-nil, receives the core call timings.
func pipelinePass(dcs []dcInput, seed int64, times *passTimes) (passOutput, error) {
	h := fnv.New64a()
	var out passOutput
	for _, d := range dcs {
		fw := d.framework(seed)
		t0 := time.Now()
		pr, err := fw.Optimize(d.fleet, d.tree)
		t1 := time.Now()
		if err != nil {
			return out, fmt.Errorf("%s optimize: %w", d.cfg.Name, err)
		}
		rr, err := fw.Reshape(d.fleet, pr)
		t2 := time.Now()
		if err != nil {
			return out, fmt.Errorf("%s reshape: %w", d.cfg.Name, err)
		}
		if times != nil {
			times.optimize += t1.Sub(t0)
			times.reshape += t2.Sub(t1)
		}
		out.reports = append(out.reports, pr.PeakReports)
		for _, r := range pr.PeakReports {
			writeHash(h, float64(r.Level), r.Before, r.After)
		}
		leaves := pr.OptimizedTree.InstanceLeaves()
		for _, id := range detmap.SortedKeys(leaves) {
			h.Write([]byte(id + "@" + leaves[id] + ";"))
		}
		writeHash(h, float64(rr.NConv), float64(rr.NThrottleConv), rr.Lconv, rr.AvgSlackReductionPct, rr.OffPeakSlackReductionPct)
	}
	out.digest = h.Sum64()
	return out, nil
}

func writeHash(h io.Writer, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// stepTimes are the five public calls Framework.Optimize makes, timed one
// by one.
type stepTimes struct {
	averaged, oblivious, aware, peak, asynchrony time.Duration
}

func (s stepTimes) total() time.Duration {
	return s.averaged + s.oblivious + s.aware + s.peak + s.asynchrony
}

// optimizeSteps repeats Framework.Optimize's five steps as direct calls and
// returns the RPP reduction they reach, which must equal Optimize's.
func optimizeSteps(d dcInput, seed int64, st *stepTimes) (float64, error) {
	t0 := time.Now()
	avg, err := d.fleet.AveragedITraces(trainWeeks)
	st.averaged += time.Since(t0)
	if err != nil {
		return 0, err
	}
	test, err := d.fleet.SplitWeeks(trainWeeks)
	if err != nil {
		return 0, err
	}
	instances := make([]placement.Instance, len(d.fleet.Instances))
	for i, inst := range d.fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	trainFn := placement.TraceFn(workload.SubPowerFn(avg))

	base := d.tree.Clone()
	t0 = time.Now()
	err = placement.Oblivious{MixFraction: d.cfg.BaselineMix}.Place(base, instances, trainFn)
	st.oblivious += time.Since(t0)
	if err != nil {
		return 0, err
	}
	opt := d.tree.Clone()
	t0 = time.Now()
	err = placement.WorkloadAware{TopServices: topServices, Seed: seed, Workers: workers}.Place(opt, instances, trainFn)
	st.aware += time.Since(t0)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	reports, err := metrics.PeakReduction(base, opt, powertree.PowerFn(workload.SubPowerFn(test)))
	st.peak += time.Since(t0)
	if err != nil {
		return 0, err
	}
	testFn := placement.TraceFn(workload.SubPowerFn(test))
	t0 = time.Now()
	if _, err := placement.LevelAsynchrony(base, powertree.RPP, testFn); err != nil {
		return 0, err
	}
	if _, err := placement.LevelAsynchrony(opt, powertree.RPP, testFn); err != nil {
		return 0, err
	}
	st.asynchrony += time.Since(t0)
	for _, r := range reports {
		if r.Level == powertree.RPP {
			return r.ReductionPct, nil
		}
	}
	return 0, fmt.Errorf("%s: no RPP row in the peak reduction report", d.cfg.Name)
}

// checkPipeline holds the reference pass to the paper's outcome numbers.
func checkPipeline(e *env, o *outcome, dcs []dcInput, ref passOutput) {
	for i, reports := range ref.reports {
		name := dcs[i].cfg.Name
		for _, r := range reports {
			switch r.Level {
			case powertree.DC:
				// The root hosts every instance under either placement, so
				// its peak cannot move; the residue is float noise.
				if math.Abs(r.ReductionPct) >= 1e-9 {
					o.fail("%s DC-level peak reduction %g%%, want |x| < 1e-9", name, r.ReductionPct)
				}
			case powertree.RPP:
				e.report("check %s RPP peak reduction %.4f%%", name, r.ReductionPct)
				if e.seed == 1 && math.Round(r.ReductionPct*10)/10 != fig10RPP[i] {
					o.fail("%s RPP peak reduction %.2f%%, want %.1f%% (EXPERIMENTS.md Fig. 10)", name, r.ReductionPct, fig10RPP[i])
				}
			}
		}
	}
}

func runPipeline(e *env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	var buildMs samples
	var dcs []dcInput
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if dcs, err = buildPipelineInputs(&buildMs); err != nil {
			return nil, err
		}
		o.setup.add(time.Since(t0))
	}
	for _, d := range dcs {
		e.report("# %s scale %d step %s: %d instances, %d leaves", d.cfg.Name, pipelineScale, pipelineStep, len(d.fleet.Instances), len(d.tree.Leaves()))
	}
	e.report("# 1 client, closed loop: Optimize+Reshape for DC1-DC3 per pass, TopServices %d, workers %d", topServices, workers)

	// The warm-up pass is the reference every timed pass must reproduce.
	ref, err := pipelinePass(dcs, e.seed, nil)
	o.attempted++
	if err != nil {
		o.failed++
		o.fail("warm-up pass: %v", err)
		return o, nil
	}
	checkPipeline(e, o, dcs, ref)
	heap0 := liveHeap()

	measure := func(times *[]passTimes) (lat samples, cpu time.Duration, alloc uint64) {
		before, cpu0 := memStats().TotalAlloc, cpuNow()
		start := time.Now()
		for len(lat) == 0 || time.Since(start) < e.seconds {
			var pt *passTimes
			if times != nil {
				*times = append(*times, passTimes{})
				pt = &(*times)[len(*times)-1]
			}
			t0 := time.Now()
			out, err := pipelinePass(dcs, e.seed, pt)
			d := time.Since(t0)
			o.attempted++
			if err != nil {
				o.failed++
				o.fail("pass: %v", err)
				if time.Since(start) >= e.seconds {
					break
				}
				continue
			}
			if out.digest != ref.digest {
				o.fail("pass digest %x differs from the warm-up pass %x", out.digest, ref.digest)
			}
			lat.add(d)
		}
		return lat, cpuNow() - cpu0, memStats().TotalAlloc - before
	}

	o.op, o.cpu, o.allocBytes = measure(nil)
	o.ops = len(o.op)
	o.heapBytes = liveHeap()
	e.report("e2e pipeline_s %.4f s (median of %d passes)", o.op.median(), len(o.op))
	e.report("e2e pipeline_alloc_mb %.2f MB per pass", float64(o.allocBytes)/float64(o.ops)/1e6)
	e.report("e2e heap_growth_mb %.3f MB", (float64(o.heapBytes)-float64(heap0))/1e6)

	if e.trace {
		start, err := startLayers()
		if err != nil {
			return nil, err
		}
		var times []passTimes
		lat, _, _ := measure(&times)
		if err := start.finish(len(lat), o.layers); err != nil {
			return nil, err
		}
		o.layers["trace_overhead_pct"] = overheadPct(o.op.median(), lat.median())
		if err := tracePipeline(e, o, dcs, ref, buildMs, times); err != nil {
			return nil, err
		}
	}
	o.reportCommon(e)
	return o, nil
}

// tracePipeline fills the pipeline's per-layer metrics from the traced
// passes' core timings and one direct repetition of Optimize's five steps
// per traced pass.
func tracePipeline(e *env, o *outcome, dcs []dcInput, ref passOutput, buildMs samples, times []passTimes) error {
	var opt, resh, steps, avg, aware, obliv, peak, asyn samples
	for _, pt := range times {
		opt.add(pt.optimize)
		resh.add(pt.reshape)
	}
	// The five steps, repeated directly once per traced pass.
	for range times {
		var st stepTimes
		for i, d := range dcs {
			rpp, err := optimizeSteps(d, e.seed, &st)
			if err != nil {
				return err
			}
			for _, r := range ref.reports[i] {
				if r.Level == powertree.RPP && r.ReductionPct != rpp {
					o.fail("%s: direct Optimize steps reach RPP %.6f%%, Optimize %.6f%%", d.cfg.Name, rpp, r.ReductionPct)
				}
			}
		}
		steps.add(st.total())
		avg.add(st.averaged)
		aware.add(st.aware)
		obliv.add(st.oblivious)
		peak.add(st.peak)
		asyn.add(st.asynchrony)
	}
	ms := func(s samples) float64 { return s.median() * 1e3 }
	o.layers["workload.build_dc_ms"] = ms(buildMs)
	o.layers["core.optimize_ms"] = ms(opt)
	o.layers["core.reshape_ms"] = ms(resh)
	o.layers["core.optimize_steps_ms"] = ms(steps)
	o.layers["workload.averaged_itraces_ms"] = ms(avg)
	o.layers["placement.workload_aware_place_ms"] = ms(aware)
	o.layers["placement.oblivious_place_ms"] = ms(obliv)
	o.layers["placement.level_asynchrony_ms"] = ms(asyn)
	o.layers["metrics.peak_reduction_ms"] = ms(peak)
	gap := (steps.median() - opt.median()) / opt.median()
	e.report("check layer sum: 5 Optimize steps %.2f ms vs core.optimize_ms %.2f ms (%+.1f%%, tolerance ±%.0f%%)",
		ms(steps), ms(opt), 100*gap, 100*stepTolerance)
	if math.Abs(gap) > stepTolerance {
		o.fail("Optimize steps sum to %.2f ms, core.optimize_ms is %.2f ms: gap %+.1f%% beyond ±%.0f%%", ms(steps), ms(opt), 100*gap, 100*stepTolerance)
	}
	reportLayers(e, o.layers)
	return nil
}
