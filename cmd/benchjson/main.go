// benchjson measures the pipeline's hot kernels in-process (via
// testing.Benchmark, so ns/op, B/op and allocs/op come from the standard
// benchmark machinery) and writes them to a JSON file. `make bench-json`
// produces BENCH_pipeline.json; successive PRs diff it to track the perf
// trajectory of the scoring, aggregation and percentile kernels, of one
// online admission, of fault-injected telemetry ingest and of the full
// experiment pipeline. The -scale flag adds a fleet-size axis pitting
// the full O(fleet) aggregation sweep against the incremental delta tick
// (≤1% of leaves dirty) at 10k/100k/1M instances.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
)

// result is one benchmark row of the output file.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func synthTraces(n, length int, seed int64) []timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	out := make([]timeseries.Series, n)
	for i := range out {
		s := timeseries.Zeros(start, 5*time.Minute, length)
		for j := range s.Values {
			s.Values[j] = 50 + 250*rng.Float64()
		}
		out[i] = s
	}
	return out
}

func benchTree() (*powertree.Node, powertree.PowerFn, error) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "bench", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 10000,
	})
	if err != nil {
		return nil, nil, err
	}
	traces := make(map[string]timeseries.Series)
	for li, leaf := range tree.Leaves() {
		for k, s := range synthTraces(8, 288, int64(li+1)) {
			id := fmt.Sprintf("i%d-%d", li, k)
			traces[id] = s
			if err := leaf.Attach(id); err != nil {
				return nil, nil, err
			}
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		s, ok := traces[id]
		return s, ok
	}, nil
}

// benchOnline wraps a fresh benchTree in an asynchrony-policy online placer
// and returns it with the IDs of 16 arrivals it can admit. One
// placement/online_admit op admits an arrival and retires it again, so the
// tree stays at its 128 residents.
func benchOnline() (*placement.Online, []string, error) {
	tree, pf, err := benchTree()
	if err != nil {
		return nil, nil, err
	}
	arrivals := make([]string, 16)
	extra := make(map[string]timeseries.Series, len(arrivals))
	for i, s := range synthTraces(len(arrivals), 288, 97) {
		arrivals[i] = fmt.Sprintf("a%d", i)
		extra[arrivals[i]] = s
	}
	traces := func(id string) (timeseries.Series, bool) {
		if s, ok := extra[id]; ok {
			return s, true
		}
		return pf(id)
	}
	o, err := placement.NewOnline(tree, traces, placement.PolicyConfig{})
	return o, arrivals, err
}

// benchmarks builds the suite: kernel-level benches for the scoring,
// aggregation and percentile hot paths, one online admission, plus the full
// 3-DC pipeline. Every closure calls b.ReportAllocs so
// allocs/op lands in the output.
func benchmarks() (map[string]func(b *testing.B), error) {
	scoreTraces := synthTraces(520, 288, 17)
	instances, straces := scoreTraces[:512], scoreTraces[512:]
	basis, err := score.NewBasis(straces)
	if err != nil {
		return nil, err
	}
	tree, pf, err := benchTree()
	if err != nil {
		return nil, err
	}
	week := synthTraces(1, timeseries.MinutesPerWeek, 23)[0]
	online, arrivals, err := benchOnline()
	if err != nil {
		return nil, err
	}

	return map[string]func(b *testing.B){
		"score/basis_vector_into": func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]float64, basis.Len())
			for i := 0; i < b.N; i++ {
				if err := basis.VectorInto(dst, instances[i%len(instances)]); err != nil {
					b.Fatal(err)
				}
			}
		},
		"score/vectors_batch512": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := score.VectorsParallel(instances, straces, 1); err != nil {
					b.Fatal(err)
				}
			}
		},
		"score/farb_composite": func(b *testing.B) {
			b.ReportAllocs()
			w := score.DefaultFARBWeights()
			// Four residual dimensions (power + three capacities) is the
			// realistic upper end for a candidate leaf.
			residuals := []float64{0.42, 0.13, 0.87, 0.61}
			for i := 0; i < b.N; i++ {
				if _, err := score.Composite(w, residuals, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		},
		"score/differential": func(b *testing.B) {
			b.ReportAllocs()
			// One instance against a 16-peer node, the per-candidate unit of
			// admission scoring and of Remap's swap search.
			inst, peers := instances[0], instances[1:17]
			for i := 0; i < b.N; i++ {
				if _, err := score.Differential(inst, peers); err != nil {
					b.Fatal(err)
				}
			}
		},
		"placement/online_admit": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id := arrivals[i%len(arrivals)]
				if _, err := online.Admit(placement.Instance{ID: id}); err != nil {
					b.Fatal(err)
				}
				if _, err := online.Retire(id); err != nil {
					b.Fatal(err)
				}
			}
		},
		"powertree/aggregate_all": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.AggregateAll(pf); err != nil {
					b.Fatal(err)
				}
			}
		},
		"powertree/per_node_oracle": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var failed error
				tree.Walk(func(n *powertree.Node) {
					if failed != nil {
						return
					}
					if _, _, err := n.AggregatePower(pf); err != nil {
						failed = err
					}
				})
				if failed != nil {
					b.Fatal(failed)
				}
			}
		},
		"timeseries/percentile_calc_week": func(b *testing.B) {
			b.ReportAllocs()
			var calc timeseries.PercentileCalc
			calc.Percentile(week, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = calc.Percentile(week, 95)
			}
		},
		"timeseries/percentile_sketch_week": func(b *testing.B) {
			b.ReportAllocs()
			sk, err := timeseries.NewPercentileSketch(0.01)
			if err != nil {
				b.Fatal(err)
			}
			sk.Percentile(week, 50)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sk.Percentile(week, 95)
			}
		},
		"timeseries/percentile_series_week": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = week.Percentile(95)
			}
		},
		"faults/feed_light": func(b *testing.B) {
			b.ReportAllocs()
			inj, err := faults.New(faults.Light(1), ingestStep, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := ingestEpoch.Add(time.Duration(i) * ingestWeek)
				for _, id := range ingestIDs {
					for s := 0; s < ingestSlots; s++ {
						inj.Feed(id, from.Add(time.Duration(s)*ingestStep), 100)
					}
				}
			}
		},
		"core/ingest_light": func(b *testing.B) {
			b.ReportAllocs()
			rt, err := ingestRuntime()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := ingestEpoch.Add(time.Duration(i) * ingestWeek)
				for _, id := range ingestIDs {
					for s := 0; s < ingestSlots; s++ {
						if err := rt.Ingest(id, from.Add(time.Duration(s)*ingestStep), 100); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		},
		"experiments/run_all": func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunAll(experiments.Options{
					Scale: 1, Step: time.Hour, Seed: 1, TopServices: 8,
				}); err != nil {
					b.Fatal(err)
				}
			}
		},
	}, nil
}

// names fixes the output (and execution) order without ranging over the map.
var names = []string{
	"score/basis_vector_into",
	"score/vectors_batch512",
	"score/farb_composite",
	"score/differential",
	"placement/online_admit",
	"powertree/aggregate_all",
	"powertree/per_node_oracle",
	"timeseries/percentile_calc_week",
	"timeseries/percentile_sketch_week",
	"timeseries/percentile_series_week",
	"faults/feed_light",
	"core/ingest_light",
	"experiments/run_all",
}

// The ingest rows replay one week of 30-minute telemetry for 1,000
// instances per op through faults.Light(1), instance by instance, oldest
// reading first. Successive ops feed successive weeks to the same injector
// (and, for core/ingest_light, the same one-week store), so they measure
// the steady state: every record exists and every new slot advances the
// store's window.
const (
	ingestStep  = 30 * time.Minute
	ingestWeek  = 7 * 24 * time.Hour
	ingestSlots = int(ingestWeek / ingestStep)
)

var (
	ingestEpoch = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	ingestIDs   = func() []string {
		ids := make([]string, 1000)
		for i := range ids {
			ids[i] = fmt.Sprintf("i%04d", i)
		}
		return ids
	}()
)

// ingestRuntime is a fault-injected runtime over a one-week store.
func ingestRuntime() (*core.Runtime, error) {
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "ingest", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 1e9,
	})
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(faults.Light(1), ingestStep, tree)
	if err != nil {
		return nil, err
	}
	store := tracestore.New(tracestore.Config{Step: ingestStep, Retention: ingestWeek})
	return core.NewRuntime(core.New(core.Config{}), store, tree, core.RuntimeConfig{Faults: inj})
}

// scalePoint is one rung of the fleet-size axis: a topology sized so the
// attached fleet holds ~instances instances. The delta tick dirties ~1% of
// the leaves (at least one), matching a drift-monitor tick that touched a
// handful of racks.
type scalePoint struct {
	label     string
	instances int
	spec      powertree.TopologySpec
}

var scalePoints = []scalePoint{
	{"10k", 10_000, powertree.TopologySpec{
		Name: "scale10k", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 4,
		LeafBudget: 1e9}}, // 32 leaves
	{"100k", 100_000, powertree.TopologySpec{
		Name: "scale100k", SuitesPerDC: 2, MSBsPerSuite: 4, SBsPerMSB: 4, RPPsPerSB: 4,
		LeafBudget: 1e9}}, // 128 leaves
	{"1M", 1_000_000, powertree.TopologySpec{
		Name: "scale1M", SuitesPerDC: 4, MSBsPerSuite: 4, SBsPerMSB: 4, RPPsPerSB: 4,
		LeafBudget: 1e9}}, // 256 leaves
}

// scaleTree builds one scale point's fleet. Instances share a fixed pool of
// 64 traces — the PowerFn decodes the instance index from the id ("i<idx>")
// and serves pool[idx mod 64], so the per-instance trace memory stays flat
// while the fold work is the real O(fleet) amount.
func scaleTree(p scalePoint, pool []timeseries.Series) (*powertree.Node, powertree.PowerFn, error) {
	tree, err := powertree.Build(p.spec)
	if err != nil {
		return nil, nil, err
	}
	leaves := tree.Leaves()
	perLeaf := (p.instances + len(leaves) - 1) / len(leaves)
	next := 0
	for _, leaf := range leaves {
		for k := 0; k < perLeaf; k++ {
			if err := leaf.Attach("i" + strconv.Itoa(next)); err != nil {
				return nil, nil, err
			}
			next++
		}
	}
	pf := func(id string) (timeseries.Series, bool) {
		idx, err := strconv.Atoi(id[1:])
		if err != nil {
			return timeseries.Series{}, false
		}
		return pool[idx&(len(pool)-1)], true
	}
	return tree, pf, nil
}

// scaleBenchmarks builds the full-sweep vs delta-tick pair for each
// requested scale point. Both sides run serially so the ratio isolates the
// algorithmic win (O(fleet) refold vs O(changed) refold + O(depth) root-path
// recombine), not parallel speedup.
func scaleBenchmarks(points []scalePoint) (map[string]func(b *testing.B), []string, error) {
	pool := synthTraces(64, 288, 41)
	suite := make(map[string]func(b *testing.B))
	var order []string
	for _, p := range points {
		tree, pf, err := scaleTree(p, pool)
		if err != nil {
			return nil, nil, fmt.Errorf("benchjson: scale point %s: %w", p.label, err)
		}
		leaves := tree.Leaves()
		dirtyN := len(leaves) / 100
		if dirtyN < 1 {
			dirtyN = 1
		}
		stride := len(leaves) / dirtyN
		dirty := make([]*powertree.Node, 0, dirtyN)
		for i := 0; i < dirtyN; i++ {
			dirty = append(dirty, leaves[i*stride])
		}
		fullName := "scale/full_sweep_" + p.label
		deltaName := "scale/delta_tick_" + p.label
		suite[fullName] = func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.AggregateAll(pf); err != nil {
					b.Fatal(err)
				}
			}
		}
		suite[deltaName] = func(b *testing.B) {
			b.ReportAllocs()
			agg, err := powertree.NewAggregator(tree, pf)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := agg.MarkDirty(dirty...); err != nil {
					b.Fatal(err)
				}
				if _, err := agg.Update(); err != nil {
					b.Fatal(err)
				}
			}
		}
		order = append(order, fullName, deltaName)
	}
	return suite, order, nil
}

// buildSuite assembles the run order for the chosen scale mode: "off" is the
// base kernel suite, "full" appends all three scale points, and "short" is
// only the CI-sized 10k/100k pair (the 1M fleet is too slow for every push).
func buildSuite(scale string) (map[string]func(b *testing.B), []string, error) {
	switch scale {
	case "off", "full":
		suite, err := benchmarks()
		if err != nil {
			return nil, nil, err
		}
		order := append([]string(nil), names...)
		if scale == "full" {
			extra, extraOrder, err := scaleBenchmarks(scalePoints)
			if err != nil {
				return nil, nil, err
			}
			for name, fn := range extra {
				suite[name] = fn
			}
			order = append(order, extraOrder...)
		}
		return suite, order, nil
	case "short":
		return scaleBenchmarks(scalePoints[:2])
	default:
		return nil, nil, fmt.Errorf("benchjson: unknown -scale mode %q (off|short|full)", scale)
	}
}

func run(out, scale string) error {
	suite, order, err := buildSuite(scale)
	if err != nil {
		return err
	}
	results := make([]result, 0, len(suite))
	for _, name := range order {
		fn, ok := suite[name]
		if !ok {
			return fmt.Errorf("benchjson: unknown benchmark %q", name)
		}
		fmt.Fprintf(os.Stderr, "benchjson: running %s\n", name)
		r := testing.Benchmark(fn)
		results = append(results, result{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return fmt.Errorf("benchjson: writing %s: %w", out, err)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(results), out)
	return nil
}

func main() {
	out := flag.String("o", "BENCH_pipeline.json", "output file")
	scale := flag.String("scale", "full", "fleet-size axis: off, short (10k+100k, CI-sized) or full (10k/100k/1M)")
	flag.Parse()
	if err := run(*out, *scale); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
