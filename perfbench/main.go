// Command perfbench is the repository's seeded end-to-end benchmark. It
// drives SmoothOperator only through public functions — workload,
// core.Framework, core.Runtime, the real /v1 HTTP handler called in-process
// through ServeHTTP, plan.Service and the public functions of the lower
// layers — and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
//
// Workloads: pipeline, replay, admit-churn, plan-mixed (see README.md in this
// directory for why each exists and which layer metric should move which
// end-to-end metric). --trace 0 prints the end-to-end metrics; --trace 1
// runs the workload once more with the benchmark's layer timers on and
// prints the per-layer metrics and the tracing overhead instead. Human
// readable report lines come first; the last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloadSpec is one named workload.
type workloadSpec struct {
	Name string
	Run  func(e *env) (*outcome, error)
}

var workloads = []workloadSpec{
	{Name: "pipeline", Run: runPipeline},
	{Name: "replay", Run: runReplay},
	{Name: "admit-churn", Run: func(e *env) (*outcome, error) { return runServing(e, false) }},
	{Name: "plan-mixed", Run: func(e *env) (*outcome, error) { return runServing(e, true) }},
}

// env is what a workload runner gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     io.Writer
}

// report writes one human-readable line.
func (e *env) report(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// outcome is what a workload runner measured.
type outcome struct {
	attempted, failed int
	setup             samples       // one entry per set-up
	op                samples       // latencies behind op_p50_ms
	ops               int           // operations behind cpu_ms_per_op and alloc_mb_per_op
	cpu               time.Duration // process CPU time over the ops
	allocBytes        uint64        // allocated over the ops
	heapBytes         uint64        // live heap at the workload's fixed reading point
	layers            map[string]float64
	failures          []string // correctness checks that failed
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// metricValue is one entry of the result's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pipeline, replay, admit-churn or plan-mixed")
	seed := flag.Int64("seed", 1, "seed for the framework, the fault injector and the request decks")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the workload again with layer timers and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errChecks = errors.New("correctness checks failed")

func run(name string, seed int64, seconds, trace int, stdout io.Writer) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].Name == name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown --workload %q", name)
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, out: stdout}
	e.report("# perfbench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d", name, seed, seconds, trace, runtime.GOMAXPROCS(0))
	o, err := spec.Run(e)
	if err != nil {
		return err
	}
	res := result{
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs := endToEnd
	values := o.endToEnd()
	if e.trace {
		defs, values = perLayer, o.layers
		declared := map[string]bool{}
		for _, d := range perLayer {
			declared[d.Name] = true
		}
		for _, k := range sortedKeys(o.layers) {
			if !declared[k] {
				o.fail("layer metric %s is not in the catalogue", k)
			}
		}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !e.trace {
			o.fail("workload measured no %s", d.Name)
		}
		// A layer the workload never calls is absent and reads 0.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s is %v", d.Name, v)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = len(o.failures) == 0
	for _, f := range o.failures {
		e.report("check FAILED: %s", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errChecks
	}
	return nil
}

// endToEnd computes the --trace 0 metrics from what the runner measured.
func (o *outcome) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":   o.setup.median(),
		"op_p50_ms": o.op.median() * 1e3,
	}
	if o.attempted > 0 {
		m["ok_pct"] = 100 * float64(o.attempted-o.failed) / float64(o.attempted)
	}
	if o.ops > 0 {
		m["cpu_ms_per_op"] = o.cpu.Seconds() * 1e3 / float64(o.ops)
		m["alloc_mb_per_op"] = float64(o.allocBytes) / float64(o.ops) / 1e6
	}
	m["heap_mb"] = float64(o.heapBytes) / 1e6
	return m
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	return memStats().HeapAlloc
}

// layerReading records the obs registry and Go runtime counters at the
// start of a traced phase; finish turns the difference into per-op layer
// metrics.
type layerReading struct {
	obs   obsReading
	alloc uint64
	gcs   uint32
}

func startLayers() (layerReading, error) {
	r, err := readObs()
	if err != nil {
		return layerReading{}, err
	}
	m := memStats()
	return layerReading{obs: r, alloc: m.TotalAlloc, gcs: m.NumGC}, nil
}

// finish adds every obs-backed layer metric, go.gc_cycles and go.alloc_mb,
// each divided by ops, to layers.
func (s layerReading) finish(ops int, layers map[string]float64) error {
	m := memStats()
	after, err := readObs()
	if err != nil {
		return err
	}
	if ops < 1 {
		return fmt.Errorf("traced phase completed no operations")
	}
	per := 1 / float64(ops)
	for _, d := range perLayer {
		if d.Obs == "" {
			continue
		}
		v, err := after.delta(s.obs, d.Obs)
		if err != nil {
			return err
		}
		layers[d.Name] = v * per
	}
	layers["go.gc_cycles"] = float64(m.NumGC-s.gcs) * per
	layers["go.alloc_mb"] = float64(m.TotalAlloc-s.alloc) / 1e6 * per
	return nil
}

// overheadPct is the tracing overhead: traced minus untraced, over untraced.
func overheadPct(untraced, traced float64) float64 {
	return 100 * (traced - untraced) / untraced
}

// reportLayers prints the per-layer metrics in catalogue order with the
// end-to-end metric each should move, then the useful-work ratios.
func reportLayers(e *env, layers map[string]float64) {
	for _, d := range perLayer {
		v, ok := layers[d.Name]
		if !ok {
			continue
		}
		e.report("layer %-36s %14.6g %-5s -> %s", d.Name, v, d.Unit, d.Moves)
	}
	ratio := func(name string, useful, attempts float64) {
		if attempts > 0 {
			e.report("ratio %-36s %14.6g (of %.6g per op)", name, useful/attempts, attempts)
		}
	}
	L := layers
	ratio("core.frag_delta_share", L["core.frag_delta_refreshes"], L["core.frag_delta_refreshes"]+L["core.frag_full_refreshes"])
	ratio("placement.swap_yield", L["placement.swaps_applied"], L["placement.swaps_attempted"])
	ratio("powertree.delta_share", L["powertree.delta_updates"], L["powertree.delta_updates"]+L["powertree.delta_rebuilds"])
	ratio("plan.snapshot_reuse", L["plan.queries"]-L["plan.snapshots"], L["plan.queries"])
}

// sortedKeys returns a map's keys in order (for stable report lines).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportCommon prints the end-to-end lines every workload shares.
func (o *outcome) reportCommon(e *env) {
	e.report("e2e setup_s %.4f s (median of %d set-ups)", o.setup.median(), len(o.setup))
	fail := 0.0
	if o.attempted > 0 {
		fail = 100 * float64(o.failed) / float64(o.attempted)
	}
	e.report("e2e fail_pct %.4f %% (%d of %d operations)", fail, o.failed, o.attempted)
}
