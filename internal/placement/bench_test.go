package placement

import (
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/workload"
)

// benchFixture builds a mid-size fleet + tree once per benchmark.
func benchFixture(b *testing.B) ([]Instance, TraceFn, *powertree.Node) {
	b.Helper()
	spec := workload.GenSpec{
		Mix: map[string]int{
			"frontend": 48, "cache": 32, "dbA": 32, "hadoop": 32, "labserver": 16,
		},
		Start: time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC),
		Step:  time.Hour, Weeks: 1,
		PhaseJitterHours: 2, AmplitudeSigma: 0.2, NoiseSigma: 0.01, Seed: 7,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		b.Fatal(err)
	}
	instances := make([]Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = Instance{ID: inst.ID, Service: inst.Service}
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "b", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 16 * 310,
	})
	if err != nil {
		b.Fatal(err)
	}
	return instances, TraceFn(fleet.PowerFn()), tree
}

func benchPlacer(b *testing.B, placer Placer) {
	instances, traces, tree := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tree.Clone()
		if err := placer.Place(tr, instances, traces); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObliviousPlace(b *testing.B) { benchPlacer(b, Oblivious{}) }
func BenchmarkRandomPlace(b *testing.B)    { benchPlacer(b, Random{Seed: 1}) }
func BenchmarkWorkloadAware(b *testing.B)  { benchPlacer(b, WorkloadAware{TopServices: 5, Seed: 1}) }
func BenchmarkWorkloadAwareIToI(b *testing.B) {
	benchPlacer(b, WorkloadAware{Seed: 1, IToI: true, IToISample: 16})
}

func BenchmarkRemap(b *testing.B) {
	instances, traces, tree := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := tree.Clone()
		if err := (Oblivious{}).Place(tr, instances, traces); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Remap(tr, traces, RemapConfig{MaxSwaps: 8, CandidateNodes: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineAdmit measures one arrival on a populated tree: Admit (the
// candidate walk, policy scoring and aggregate update) followed by the
// matching Retire, so the tree stays at steady occupancy.
func BenchmarkOnlineAdmit(b *testing.B) {
	instances, traces, tree := benchFixture(b)
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		b.Fatal(err)
	}
	split := len(instances) * 3 / 4
	for _, inst := range instances[:split] {
		if _, err := o.Admit(inst); err != nil {
			b.Fatal(err)
		}
	}
	held := instances[split:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := held[i%len(held)]
		if _, err := o.Admit(inst); err != nil {
			b.Fatal(err)
		}
		if _, err := o.Retire(inst.ID); err != nil {
			b.Fatal(err)
		}
	}
}
