package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func testDeck(seed int64) servingDeck {
	var ids, services, leaves []string
	service := map[string]string{}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("inst%03d", i)
		ids = append(ids, id)
		service[id] = fmt.Sprintf("svc%d", i%7)
	}
	for i := 0; i < 7; i++ {
		services = append(services, fmt.Sprintf("svc%d", i))
	}
	for i := 0; i < 16; i++ {
		leaves = append(leaves, fmt.Sprintf("leaf%d", i))
	}
	return makeServingDeck(seed, ids, service, services, leaves, 500, 90)
}

func TestDeckIsAFunctionOfTheSeed(t *testing.T) {
	a, b := testDeck(7), testDeck(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed produced two different decks")
	}
	if c := testDeck(8); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 produced the same deck")
	}
}

func TestDeckKeepsResidentCountAndBalancesPlans(t *testing.T) {
	d := testDeck(3)
	if len(d.Residents) != 90 {
		t.Fatalf("got %d residents, want 90 of 100", len(d.Residents))
	}
	live := map[string]bool{}
	for _, id := range d.Residents {
		live[id] = true
	}
	for i, p := range d.Pairs {
		if live[p.AdmitID] || !live[p.RetireID] {
			t.Fatalf("round %d admits resident %s or retires non-resident %s", i, p.AdmitID, p.RetireID)
		}
		live[p.AdmitID] = true
		delete(live, p.RetireID)
	}
	if len(live) != 90 {
		t.Fatalf("%d residents after the deck, want 90", len(live))
	}
	kinds := map[string]int{}
	for _, q := range d.Plans {
		kinds[q.Kind]++
	}
	if len(kinds) != 3 || kinds["replace_service"] != 30 || kinds["add_instances"] != 30 || kinds["trip_breaker"] != 30 {
		t.Fatalf("plan kinds %v, want 30 of each of three", kinds)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, ok := s.percentile(90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, ok)
	}
	if _, ok := s.percentile(95); ok {
		t.Fatal("p95 of 100 samples reported with only 5 beyond it")
	}
	if _, ok := s.percentile(99); ok {
		t.Fatal("p99 of 100 samples reported with only 1 beyond it")
	}
	if m := s.median(); m != 50.5 {
		t.Fatalf("median of 1..100 = %v, want 50.5", m)
	}
	s = append(s[:0], make([]float64, 1000)...)
	if _, ok := s.percentile(99); !ok {
		t.Fatal("p99 of 1000 samples withheld with 10 beyond it")
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	declared := map[string]string{}
	for _, m := range b.EndToEnd {
		declared[m.Name] = m.Unit + "/" + m.Better
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		declared[m.Name] = m.Unit + "/" + m.Better
	}
	want := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		want[d.Name] = d.Unit + "/" + d.Better
	}
	if !reflect.DeepEqual(declared, want) {
		t.Errorf("BENCHMARK.json metrics %v\ndiffer from the catalogue %v", declared, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var runners []string
	for _, w := range workloads {
		runners = append(runners, w.Name)
	}
	if !reflect.DeepEqual(names, runners) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, runners)
	}
}

// TestEmittedMetricsAreDeclared runs the cheapest workload for one second,
// untraced and traced, and checks every name in the result line.
func TestEmittedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline workload")
	}
	b := loadBenchmarkJSON(t)
	for trace, decl := range map[int]int{0: len(b.EndToEnd), 1: len(b.PerLayer)} {
		var out bytes.Buffer
		if err := run("pipeline", 1, 1, trace, &out); err != nil {
			t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Fatalf("trace %d: result %+v", trace, res)
		}
		if len(res.Metrics) != decl {
			t.Errorf("trace %d: %d metrics emitted, %d declared", trace, len(res.Metrics), decl)
		}
		for name, v := range res.Metrics {
			if !metricName.MatchString(name) {
				t.Errorf("emitted name %q does not match %s", name, metricName)
			}
			if v.Unit == "" {
				t.Errorf("%s has no unit", name)
			}
		}
	}
}

// TestReadsObsWithoutRegistering pins that the benchmark only reads the
// registry: no file of the benchmark calls a registering accessor, reading
// leaves the set of registered names unchanged, and every name the
// catalogue reads is already registered by the program.
func TestReadsObsWithoutRegistering(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	registering := map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "Span": true, "New": true, "NewWithClock": true}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registering[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "obs" {
				t.Errorf("%s: calls obs.%s", fset.Position(call.Pos()), sel.Sel.Name)
			}
			if inner, ok := sel.X.(*ast.CallExpr); ok {
				if isel, ok := inner.Fun.(*ast.SelectorExpr); ok && isel.Sel.Name == "Default" {
					t.Errorf("%s: calls obs.Default().%s", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}

	before, err := readObs()
	if err != nil {
		t.Fatal(err)
	}
	after, err := readObs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(before), keys(after)) {
		t.Fatal("reading the registry changed its set of names")
	}
	for _, d := range perLayer {
		if d.Obs == "" {
			continue
		}
		if _, ok := before[d.Obs]; !ok {
			t.Errorf("%s reads %q, which the program does not register", d.Name, d.Obs)
		}
	}
}

func keys(m obsReading) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestReadmeListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(raw, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md does not list %s", d.Name)
		}
	}
}
