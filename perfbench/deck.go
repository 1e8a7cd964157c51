package main

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/plan"
	"repro/internal/workload"
)

// Fleet shapes. Every workload runs on the paper's standard synthetic
// datacenters and never reseeds their generators. --seed is the framework
// seed of the pipeline, the framework and fault seed of the replay (so it
// matches what smoothopd prints for the same flags), and the order of the
// serving decks. The serving runtime itself is fixed — smoothopd's default
// seed and a fixed held-out tenth — so every seed starts from one
// placement and the seed varies only the requests.
const (
	pipelineScale = 4
	pipelineStep  = 10 * time.Minute
	topServices   = 8
	workers       = 2

	serveDC    = workload.DC2
	serveScale = 10
	serveStep  = 30 * time.Minute
	serveWeeks = 8
	trainWeeks = 2
	scoreFloor = 1.25
	maxSwaps   = 24

	// Every heldOutEvery-th instance (in id order) is kept out of Bootstrap
	// and churned in by the serving decks, so 90% of the fleet is resident
	// throughout.
	heldOutEvery = 10
	// serveFrameworkSeed is the serving runtime's framework seed.
	serveFrameworkSeed = 1
	// deckPairs bounds a serving deck; runs stop at --seconds long before
	// a current build reaches it.
	deckPairs = 50000
	// deckPlans bounds the planner's deck the same way.
	deckPlans = 10000
	// heapPairs is the fixed prefix of a serving deck after which the live
	// heap is read, so heap_mb does not depend on how fast the run went.
	heapPairs = 2000
	// addCount and tripFraction parameterise the planner's queries.
	addCount     = 4
	tripFraction = 0.5
)

// pipelineDC returns the paper-fidelity configuration of one datacenter.
func pipelineDC(name workload.DCName) (workload.DCConfig, error) {
	cfg, err := workload.StandardDCConfig(name, pipelineScale)
	if err != nil {
		return cfg, err
	}
	cfg.Gen.Step = pipelineStep
	return cfg, nil
}

// serveDCConfig returns the fleet shared by replay, admit-churn and
// plan-mixed: DC2 at scale 10 (1,000 instances on 64 leaves), 8 weeks at a
// 30-minute step.
func serveDCConfig() (workload.DCConfig, error) {
	cfg, err := workload.StandardDCConfig(serveDC, serveScale)
	if err != nil {
		return cfg, err
	}
	cfg.Gen.Step = serveStep
	cfg.Gen.Weeks = serveWeeks
	return cfg, nil
}

// pair is one mutator round: admit a held-out instance, then retire a
// random resident.
type pair struct {
	AdmitID, AdmitService string
	RetireID              string
}

// servingDeck is everything a serving workload sends, fixed before timing
// starts. Residents are bootstrapped; Pairs and Plans are replayed in order.
type servingDeck struct {
	Residents []string
	Pairs     []pair
	Plans     []plan.Query
}

// makeServingDeck builds the seeded deck over a fleet's ids (with their
// services) and tree leaves. The same seed always gives the same deck; the
// residents and held-out instances do not depend on the seed.
func makeServingDeck(seed int64, ids []string, service map[string]string, services, leaves []string, pairs, plans int) servingDeck {
	rng := rand.New(rand.NewSource(seed))
	pool := append([]string(nil), ids...)
	sort.Strings(pool)
	var held, residents []string
	for i, id := range pool {
		if i%heldOutEvery == 0 {
			held = append(held, id)
		} else {
			residents = append(residents, id)
		}
	}

	d := servingDeck{Residents: append([]string(nil), residents...)}
	live := append([]string(nil), residents...)
	for i := 0; i < pairs; i++ {
		a := rng.Intn(len(held))
		r := rng.Intn(len(live))
		in, out := held[a], live[r]
		held[a], live[r] = out, in
		d.Pairs = append(d.Pairs, pair{AdmitID: in, AdmitService: service[in], RetireID: out})
	}

	// Each kind, service and leaf comes up equally often, in seeded order,
	// so the planner's cost mix is the same for every seed.
	kinds := cycler(rng, []string{plan.KindReplaceService, plan.KindAddInstances, plan.KindTripBreaker})
	replaced, archetypes, tripped := cycler(rng, services), cycler(rng, services), cycler(rng, leaves)
	for len(d.Plans) < plans {
		q := plan.Query{Kind: kinds()}
		switch q.Kind {
		case plan.KindReplaceService:
			q.Service = replaced()
		case plan.KindAddInstances:
			q.Archetype = archetypes()
			q.Count = addCount
		case plan.KindTripBreaker:
			q.Node = tripped()
			q.BudgetFraction = tripFraction
		}
		d.Plans = append(d.Plans, q)
	}
	return d
}

// cycler returns the items round after round, each round in a fresh seeded
// order.
func cycler(rng *rand.Rand, items []string) func() string {
	round := append([]string(nil), items...)
	next := len(round)
	return func() string {
		if next == len(round) {
			rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
			next = 0
		}
		next++
		return round[next-1]
	}
}
