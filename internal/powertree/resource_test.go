package powertree

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestResourceVectorHelpers(t *testing.T) {
	v := ResourceVector{"net": 10, "space": 4}
	if got := v.Dimensions(); !reflect.DeepEqual(got, []string{"net", "space"}) {
		t.Fatalf("Dimensions = %v", got)
	}
	if ResourceVector(nil).Dimensions() != nil {
		t.Fatal("nil vector must have nil dimensions")
	}
	c := v.Clone()
	c["net"] = 99
	if v["net"] != 10 {
		t.Fatal("Clone must be independent")
	}
	if ResourceVector(nil).Clone() != nil {
		t.Fatal("Clone(nil) must stay nil")
	}

	sum := v.Add(ResourceVector{"net": 5, "thermal": 1})
	want := ResourceVector{"net": 15, "space": 4, "thermal": 1}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("Add = %v, want %v", sum, want)
	}
	if v["net"] != 10 {
		t.Fatal("Add must not mutate the receiver")
	}
	if ResourceVector(nil).Add(nil) != nil {
		t.Fatal("nil+nil must stay nil")
	}

	acc := ResourceVector(nil).AddInPlace(v)
	acc = acc.AddInPlace(ResourceVector{"net": 1})
	if acc["net"] != 11 || acc["space"] != 4 {
		t.Fatalf("AddInPlace = %v", acc)
	}
	if v["net"] != 10 {
		t.Fatal("AddInPlace seeded from nil must clone, not alias")
	}

	acc.SubInPlace(ResourceVector{"net": 11.0000000001, "space": 1})
	if acc["net"] != 0 {
		t.Fatalf("SubInPlace must clamp float residue to 0, got %v", acc["net"])
	}
	if acc["space"] != 3 {
		t.Fatalf("SubInPlace space = %v", acc["space"])
	}
}

func TestResourceVectorValidate(t *testing.T) {
	cases := []struct {
		name string
		v    ResourceVector
		want error
	}{
		{"nil ok", nil, nil},
		{"ok", ResourceVector{"net": 1}, nil},
		{"zero ok", ResourceVector{"net": 0}, nil},
		{"negative", ResourceVector{"net": -1}, ErrBadDimension},
		{"nan", ResourceVector{"net": math.NaN()}, ErrBadDimension},
		{"inf", ResourceVector{"net": math.Inf(1)}, ErrBadDimension},
		{"empty name", ResourceVector{"": 1}, ErrBadDimension},
		{"reserved", ResourceVector{"power": 1}, ErrReservedPower},
	}
	for _, tc := range cases {
		err := tc.v.Validate()
		if tc.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBuildDerivesCapacities(t *testing.T) {
	tree, err := Build(TopologySpec{
		Name: "dc", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget:     100,
		LeafCapacities: ResourceVector{"net": 10, "space": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Capacities["net"]; got != 40 {
		t.Fatalf("root net capacity = %v, want 40 (4 leaves × 10)", got)
	}
	for _, leaf := range tree.Leaves() {
		if leaf.Capacities["space"] != 4 {
			t.Fatalf("leaf %s space capacity = %v", leaf.Name, leaf.Capacities["space"])
		}
	}
	// Leaves must not alias the spec's vector.
	leaves := tree.Leaves()
	leaves[0].Capacities["net"] = 1
	if leaves[1].Capacities["net"] != 10 {
		t.Fatal("leaf capacity vectors alias each other")
	}

	if _, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": -1},
	}); !errors.Is(err, ErrBadDimension) {
		t.Fatalf("negative leaf capacity: got %v", err)
	}
}

func TestValidateCapacityInvariants(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves()[0]
	leaf.Capacities["net"] = 1000 // exceeds the parent SB's 20
	if err := tree.Validate(); !errors.Is(err, ErrCapacityExceed) {
		t.Fatalf("child > parent capacity: got %v", err)
	}
	leaf.Capacities["net"] = -3
	if err := tree.Validate(); !errors.Is(err, ErrBadDimension) {
		t.Fatalf("negative capacity: got %v", err)
	}
	// A child dimension the parent does not declare is fine (partial
	// declarations are allowed).
	leaf.Capacities = ResourceVector{"gpu_slots": 8}
	if err := tree.Validate(); err != nil {
		t.Fatalf("partial declaration: %v", err)
	}
}

func TestCodecRoundTripsCapacities(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10, "space": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Leaves()[0].Attach("i1"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"capacities"`) {
		t.Fatal("saved multi-resource tree must carry capacities")
	}
	got, err := LoadTree(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Capacities, tree.Capacities) {
		t.Fatalf("root capacities: got %v, want %v", got.Capacities, tree.Capacities)
	}
	if !reflect.DeepEqual(got.Leaves()[0].Capacities, tree.Leaves()[0].Capacities) {
		t.Fatal("leaf capacities did not round-trip")
	}
}

// TestCodecSingleResourceUnchanged pins the on-disk compatibility contract:
// a tree with no capacity vectors serializes without any "capacities" key,
// byte-identical to the pre-multi-resource format.
func TestCodecSingleResourceUnchanged(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "capacities") {
		t.Fatalf("single-resource tree must not serialize capacities:\n%s", buf.String())
	}
	if _, err := LoadTree(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCopiesCapacities(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := tree.Clone()
	c.Leaves()[0].Capacities["net"] = 7
	if tree.Leaves()[0].Capacities["net"] != 10 {
		t.Fatal("Clone must deep-copy capacity vectors")
	}
}

// TestSubtreeDemandsAndCapacityFits: subtree sums cover every demanding
// instance below a node, a root-path RefreshDemand after churn lands on the
// same map a fresh sum builds, and CapacityFits applies used − out + in only
// to the dimensions a node declares.
func TestSubtreeDemandsAndCapacityFits(t *testing.T) {
	tree, err := Build(TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	demands := map[string]ResourceVector{"a": {"net": 4}, "b": {"net": 3, "gpu": 1}}
	resolve := func(id string) (ResourceVector, error) { return demands[id], nil }
	leaves := tree.Leaves()
	for _, id := range []string{"a", "b", "power-only"} {
		if err := leaves[0].Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	used, err := SubtreeDemands(tree, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := used[tree], (ResourceVector{"net": 7, "gpu": 1}); !reflect.DeepEqual(got, want) {
		t.Fatalf("root demand = %v, want %v", got, want)
	}
	if _, ok := used[leaves[1]]; ok {
		t.Fatal("an empty leaf has a demand entry")
	}

	leaves[0].Detach("a")
	if err := leaves[1].Attach("a"); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leaves {
		for n := leaf; n != nil; n = n.Parent() {
			if err := RefreshDemand(used, n, resolve); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, err := SubtreeDemands(tree, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Fatalf("path refresh %v, fresh sum %v", used, fresh)
	}

	leaf := leaves[0] // net 3 of 10 used; gpu undeclared
	if !leaf.CapacityFits(used[leaf], ResourceVector{"net": 7, "gpu": 99}, nil) {
		t.Fatal("a demand that exactly fills net (gpu undeclared) was rejected")
	}
	if leaf.CapacityFits(used[leaf], ResourceVector{"net": 8}, nil) {
		t.Fatal("a demand that overflows net was accepted")
	}
	if !leaf.CapacityFits(used[leaf], ResourceVector{"net": 8}, ResourceVector{"net": 1}) {
		t.Fatal("swapping out 1 net did not make room for 8")
	}
	if !leaf.CapacityFits(used[leaf], nil, nil) {
		t.Fatal("an empty demand must always fit")
	}
	errBoom := errors.New("boom")
	if _, err := SubtreeDemands(tree, func(string) (ResourceVector, error) { return nil, errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("resolver error: got %v", err)
	}
}
