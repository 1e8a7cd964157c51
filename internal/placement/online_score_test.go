package placement

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// residentTracePolicy is the oracle for sum-based admission scoring: it
// ignores each candidate's Sum and Count and scores score.Differential over
// the leaf's resident traces, gathered in attachment order — the scoring
// the built-in policies did before they read the Aggregator's leaf sums.
// farb nil means OnlineAsynchrony's rule, otherwise OnlineFARB's.
type residentTracePolicy struct {
	traces TraceFn
	farb   *score.FARBWeights
}

func (p residentTracePolicy) Name() string { return "resident-traces" }

// residents gathers the leaf's resident traces in attachment order.
func (p residentTracePolicy) residents(leaf *powertree.Node) ([]timeseries.Series, error) {
	var out []timeseries.Series
	for _, id := range leaf.Instances {
		tr, ok := p.traces(id)
		if !ok {
			return nil, fmt.Errorf("no trace for resident %q", id)
		}
		out = append(out, tr)
	}
	return out, nil
}

func (p residentTracePolicy) Choose(cands []OnlineCandidate, _ Instance, tr timeseries.Series) (int, error) {
	if p.farb != nil {
		return p.chooseFARB(cands, tr)
	}
	best, bestScore, bestHead := -1, math.Inf(-1), math.Inf(1)
	for i, c := range cands {
		residents, err := p.residents(c.Leaf)
		if err != nil {
			return 0, err
		}
		s := math.Inf(1)
		if len(residents) > 0 {
			if s, err = score.Differential(tr, residents); err != nil {
				return 0, err
			}
		}
		if s > bestScore || (s == bestScore && c.Headroom < bestHead) {
			best, bestScore, bestHead = i, s, c.Headroom
		}
	}
	return best, nil
}

func (p residentTracePolicy) chooseFARB(cands []OnlineCandidate, tr timeseries.Series) (int, error) {
	w := p.farb.OrDefault()
	best, bestCost, bestHead := -1, math.Inf(1), math.Inf(1)
	for i, c := range cands {
		residents, err := p.residents(c.Leaf)
		if err != nil {
			return 0, err
		}
		asyncNorm := 1.0
		if len(residents) > 0 {
			s, err := score.Differential(tr, residents)
			if err != nil {
				return 0, err
			}
			asyncNorm = s - 1
		}
		cost, err := score.Composite(w, c.Residuals, asyncNorm)
		if err != nil {
			return 0, err
		}
		if cost < bestCost || (cost == bestCost && c.Headroom < bestHead) {
			best, bestCost, bestHead = i, cost, c.Headroom
		}
	}
	return best, nil
}

// twinPolicy runs the production policy and the oracle on the same
// candidates, counts the decisions and fails the test on the first
// disagreement.
type twinPolicy struct {
	t         *testing.T
	prod, ref Policy
	decided   int
	contested int
}

func (p *twinPolicy) Name() string { return p.prod.Name() }

func (p *twinPolicy) Choose(cands []OnlineCandidate, inst Instance, tr timeseries.Series) (int, error) {
	got, err := p.prod.Choose(cands, inst, tr)
	if err != nil {
		return 0, err
	}
	want, err := p.ref.Choose(cands, inst, tr)
	if err != nil {
		return 0, err
	}
	if got != want {
		p.t.Fatalf("admit %q: %s chose %q, resident-trace scoring chose %q",
			inst.ID, p.prod.Name(), cands[got].Leaf.Name, cands[want].Leaf.Name)
	}
	p.decided++
	if len(cands) > 1 {
		p.contested++
	}
	return got, nil
}

// TestOnlineSumScoringMatchesResidentTraces: over 2,000 seeded admit/retire
// rounds on a populated tree — with external swaps absorbed by Resync every
// 50 rounds — the asynchrony and asynchrony-weighted FARB policies, scoring
// from the leaf sums, pick the same leaf as scoring the resident traces.
func TestOnlineSumScoringMatchesResidentTraces(t *testing.T) {
	farbW := score.FARBWeights{Balance: 2, Fullness: 1, Residual: 0.5, Asynchrony: 1}
	variants := []struct {
		name string
		cfg  PolicyConfig
		farb *score.FARBWeights
	}{
		{"asynchrony", PolicyConfig{Kind: PolicyAsynchrony}, nil},
		{"farb", PolicyConfig{Kind: PolicyFARB, Weights: farbW}, &farbW},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			instances, traces, tree := testFixture(t)
			twin := &twinPolicy{t: t, prod: mustPolicy(t, v.cfg), ref: residentTracePolicy{traces: traces, farb: v.farb}}
			o, err := NewOnline(tree, traces, PolicyConfig{Custom: twin})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(29))
			order := rng.Perm(len(instances))
			var live, pending []Instance
			for k, i := range order {
				if k < 2*len(order)/3 {
					if _, err := o.Admit(instances[i]); err != nil {
						t.Fatalf("populating with %q: %v", instances[i].ID, err)
					}
					live = append(live, instances[i])
				} else {
					pending = append(pending, instances[i])
				}
			}
			for round := 0; round < 2000; round++ {
				i := rng.Intn(len(pending))
				inst := pending[i]
				if _, err := o.Admit(inst); err != nil {
					t.Fatalf("round %d: admit %q: %v", round, inst.ID, err)
				}
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				live = append(live, inst)
				j := rng.Intn(len(live))
				out := live[j]
				if _, err := o.Retire(out.ID); err != nil {
					t.Fatalf("round %d: retire %q: %v", round, out.ID, err)
				}
				live = append(live[:j], live[j+1:]...)
				pending = append(pending, out)
				if round%50 == 49 {
					swapAndResync(t, o, tree, rng)
				}
			}
			if twin.decided < 2000 || twin.contested < twin.decided/2 {
				t.Fatalf("only %d decisions (%d with several candidates); the rounds exercised too little", twin.decided, twin.contested)
			}
		})
	}
}

// TestOnlineAsynchronyChooseAllocFree pins the admission scoring loop at
// zero allocations over 64 candidate leaves.
func TestOnlineAsynchronyChooseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randTrace := func() timeseries.Series {
		s := timeseries.Zeros(t0, 10*time.Minute, 1008)
		for i := range s.Values {
			s.Values[i] = 50 + 250*rng.Float64()
		}
		return s
	}
	leaves := make([]powertree.Node, 64)
	cands := make([]OnlineCandidate, len(leaves))
	for i := range cands {
		leaves[i].Name = fmt.Sprintf("rpp%d", i)
		cands[i] = OnlineCandidate{Leaf: &leaves[i], Sum: randTrace(), Count: 1 + i%8, Headroom: float64(i)}
	}
	cands[5] = OnlineCandidate{Leaf: &leaves[5], Headroom: 5} // an empty leaf
	arrival := randTrace()
	policy := mustPolicy(t, PolicyConfig{})
	if n := testing.AllocsPerRun(20, func() {
		if _, err := policy.Choose(cands, Instance{ID: "x"}, arrival); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("OnlineAsynchrony.Choose over %d candidates allocs = %v, want 0", len(cands), n)
	}
}
