// Package capping implements a hierarchical power-capping runtime in the
// style of Dynamo (Wu et al., ISCA 2016), the production safety net the
// paper designates for short-term spikes: "Short-term workload
// uncertainties such as power spikes caused by traffic bursts are handled
// by commonly deployed emergency measures such as power capping solutions"
// (§3.6). SmoothOperator's placement makes capping *rarely necessary*; this
// runtime is what fires when it still is.
//
// The controller watches every node of the power delivery tree. When a
// node's draw exceeds its cap for longer than a sustain window, the
// controller sheds power from the node's subtree in priority order —
// batch-class instances are throttled first, then backend, then (only as a
// last resort) latency-critical instances — and releases the caps with
// hysteresis once the draw falls back.
package capping

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/powertree"
	"repro/internal/timeseries"
)

// Priority orders workload classes for shedding: higher values shed first.
type Priority int

// Shedding priorities, last-resort first.
const (
	// PriorityLC is shed only as a last resort.
	PriorityLC Priority = iota
	// PriorityBackend sheds before LC.
	PriorityBackend
	// PriorityBatch sheds first.
	PriorityBatch
)

// String names the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityLC:
		return "LC"
	case PriorityBackend:
		return "Backend"
	case PriorityBatch:
		return "Batch"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// InstanceState is the controller's per-instance view at one step.
type InstanceState struct {
	// Power is the instance's current draw.
	Power float64
	// MinPower is the floor the instance can be throttled to (idle or
	// RAPL/DVFS floor).
	MinPower float64
	// Priority is the instance's shedding class.
	Priority Priority
}

// Reader supplies the controller with the current state of an instance.
type Reader func(instanceID string) (InstanceState, bool)

// PeakReader views a window of instance traces as capping state: each
// instance draws its window peak and can be throttled to half of it, all
// backend-class (callers have no workload-class channel). Instances with no
// or an empty trace are unknown to the controller.
func PeakReader(traces map[string]timeseries.Series) Reader {
	return func(id string) (InstanceState, bool) {
		tr, ok := traces[id]
		if !ok || tr.Len() == 0 {
			return InstanceState{}, false
		}
		p := tr.Peak()
		return InstanceState{Power: p, MinPower: 0.5 * p, Priority: PriorityBackend}, true
	}
}

// Config tunes the controller.
type Config struct {
	// SustainSteps is how many consecutive over-cap observations arm a cap
	// (breakers tolerate brief excursions). 0 means 1 (immediate).
	SustainSteps int
	// ReleaseFraction releases an armed cap once draw falls below this
	// fraction of the node's cap. 0 means 0.95.
	ReleaseFraction float64
	// CapFraction is the target draw as a fraction of a node's budget when
	// shedding; shedding aims below the budget to create margin. 0 means 0.98.
	CapFraction float64
}

func (c Config) sustain() int {
	if c.SustainSteps <= 0 {
		return 1
	}
	return c.SustainSteps
}

func (c Config) release() float64 {
	if c.ReleaseFraction <= 0 || c.ReleaseFraction >= 1 {
		return 0.95
	}
	return c.ReleaseFraction
}

func (c Config) capTarget() float64 {
	if c.CapFraction <= 0 || c.CapFraction > 1 {
		return 0.98
	}
	return c.CapFraction
}

// Throttle is one shedding directive issued by the controller.
type Throttle struct {
	// InstanceID is the throttled instance.
	InstanceID string
	// Node is the power node whose cap triggered the directive.
	Node string
	// TargetPower is the draw the instance must be brought down to.
	TargetPower float64
	// Shed is the power removed (instance draw − target).
	Shed float64
	// Priority is the instance's class.
	Priority Priority
}

// Event records a controller state transition for one node.
type Event struct {
	// Node is the power node.
	Node string
	// Step is the controller step index.
	Step int
	// Armed is true when the cap engaged, false when it released.
	Armed bool
}

// Controller is a stateful hierarchical capping runtime bound to one tree.
type Controller struct {
	cfg  Config
	tree *powertree.Node

	overCount map[string]int
	armed     map[string]bool
	step      int
}

// ErrNilTree is returned by New for a nil tree.
var ErrNilTree = errors.New("capping: nil tree")

// New returns a controller for the given (already populated) power tree.
func New(tree *powertree.Node, cfg Config) (*Controller, error) {
	if tree == nil {
		return nil, ErrNilTree
	}
	return &Controller{
		cfg:       cfg,
		tree:      tree,
		overCount: make(map[string]int),
		armed:     make(map[string]bool),
	}, nil
}

// Armed reports whether the node's cap is currently engaged.
func (c *Controller) Armed(node string) bool { return c.armed[node] }

// Step observes the current per-instance state and returns the throttles to
// apply plus any arm/release events. The controller walks the tree bottom-up
// so leaf-level caps act before (and usually instead of) ancestor caps.
//
// Throttles are advisory targets; the caller applies them to its actuators
// (RAPL, DVFS, load shedding). Within one step, directives from different
// nodes for the same instance are merged to the lowest target.
func (c *Controller) Step(read Reader) ([]Throttle, []Event, error) {
	return c.StepWithBudgets(read, nil)
}

// StepWithBudgets is Step with per-node budget overrides for this step
// only. budget returns the effective budget for a node name (ok=false
// falls back to the node's own Budget); nil means no overrides. The
// emergency-degradation path uses it to model an injected breaker trip —
// the tripped node runs on its backup feed at a fraction of nominal
// capacity, so draws that were fine yesterday now arm its cap and shed —
// without mutating the shared tree.
func (c *Controller) StepWithBudgets(read Reader, budget func(node string) (float64, bool)) ([]Throttle, []Event, error) {
	c.step++
	var throttles []Throttle
	var events []Event

	// Effective power per instance, updated as throttles are issued so that
	// ancestor nodes see the relief from descendant caps.
	effective := make(map[string]float64)
	states := make(map[string]InstanceState)
	for _, id := range c.tree.AllInstances() {
		st, ok := read(id)
		if !ok {
			return nil, nil, fmt.Errorf("capping: no state for instance %q", id)
		}
		states[id] = st
		effective[id] = st.Power
	}

	// Bottom-up: order nodes by depth descending (leaves first).
	nodes := nodesByDepth(c.tree)
	for _, nd := range nodes {
		ids := nd.Instances
		if !nd.IsLeaf() {
			ids = nd.AllInstances()
		}
		if len(ids) == 0 {
			continue
		}
		var draw float64
		for _, id := range ids {
			draw += effective[id]
		}
		nodeBudget := nd.Budget
		if budget != nil {
			if b, ok := budget(nd.Name); ok {
				nodeBudget = b
			}
		}
		over := draw > nodeBudget
		if over {
			c.overCount[nd.Name]++
		} else {
			c.overCount[nd.Name] = 0
		}

		switch {
		case !c.armed[nd.Name] && over && c.overCount[nd.Name] >= c.cfg.sustain():
			c.armed[nd.Name] = true
			events = append(events, Event{Node: nd.Name, Step: c.step, Armed: true})
		case c.armed[nd.Name] && draw < nodeBudget*c.cfg.release():
			c.armed[nd.Name] = false
			events = append(events, Event{Node: nd.Name, Step: c.step, Armed: false})
		}
		if !c.armed[nd.Name] {
			continue
		}

		// Shed down to the cap target, batch first, largest draw first.
		target := nodeBudget * c.cfg.capTarget()
		need := draw - target
		if need <= 0 {
			continue
		}
		order := append([]string(nil), ids...)
		sort.SliceStable(order, func(a, b int) bool {
			pa, pb := states[order[a]].Priority, states[order[b]].Priority
			if pa != pb {
				return pa > pb // batch (highest value) first
			}
			return effective[order[a]] > effective[order[b]]
		})
		for _, id := range order {
			if need <= 0 {
				break
			}
			st := states[id]
			avail := effective[id] - st.MinPower
			if avail <= 0 {
				continue
			}
			shed := avail
			if shed > need {
				shed = need
			}
			newPower := effective[id] - shed
			effective[id] = newPower
			need -= shed
			throttles = append(throttles, Throttle{
				InstanceID:  id,
				Node:        nd.Name,
				TargetPower: newPower,
				Shed:        shed,
				Priority:    st.Priority,
			})
		}
	}

	merged := mergeThrottles(throttles)
	var arms, releases uint64
	for _, ev := range events {
		if ev.Armed {
			arms++
		} else {
			releases++
		}
	}
	armedNow := 0
	for _, on := range c.armed { // order-independent count over map values
		if on {
			armedNow++
		}
	}
	obsSteps.Inc()
	obsThrottlesIssued.Add(uint64(len(merged)))
	obsArmEvents.Add(arms)
	obsReleaseEvents.Add(releases)
	obsArmedNodes.Set(float64(armedNow))
	return merged, events, nil
}

// EffectivePower applies a set of throttles to raw instance powers and
// returns the resulting per-instance draw — a helper for callers and tests.
func EffectivePower(raw map[string]float64, throttles []Throttle) map[string]float64 {
	out := make(map[string]float64, len(raw))
	for id, p := range raw {
		out[id] = p
	}
	for _, t := range throttles {
		if cur, ok := out[t.InstanceID]; ok && t.TargetPower < cur {
			out[t.InstanceID] = t.TargetPower
		}
	}
	return out
}

// mergeThrottles keeps the lowest target per instance.
func mergeThrottles(ts []Throttle) []Throttle {
	best := make(map[string]int)
	var out []Throttle
	for _, t := range ts {
		if i, ok := best[t.InstanceID]; ok {
			if t.TargetPower < out[i].TargetPower {
				out[i].TargetPower = t.TargetPower
				out[i].Shed += t.Shed
				out[i].Node = t.Node
			}
			continue
		}
		best[t.InstanceID] = len(out)
		out = append(out, t)
	}
	return out
}

// nodesByDepth returns the tree's nodes ordered leaves-first.
func nodesByDepth(root *powertree.Node) []*powertree.Node {
	type depthNode struct {
		n     *powertree.Node
		depth int
	}
	var all []depthNode
	var walk func(n *powertree.Node, d int)
	walk = func(n *powertree.Node, d int) {
		all = append(all, depthNode{n, d})
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	walk(root, 0)
	sort.SliceStable(all, func(i, j int) bool { return all[i].depth > all[j].depth })
	out := make([]*powertree.Node, len(all))
	for i, dn := range all {
		out[i] = dn.n
	}
	return out
}
