package chaos

import (
	"time"

	"accubench/internal/sim"
)

// Scenario is one named fault shape — the YCSB-style workload scenarios
// (baseline / degraded / partition / high-load) the cluster's failure
// behaviour is checked under by internal/server's chaos test matrix.
//
// Apply scripts the scenario's faults onto a plan for an ordered node
// list. By convention nodes[0] is the observer (the node the harness
// posts through) and is never picked as a fault victim —
// victim draws come from nodes[1:], seeded from the plan, so a fixed
// seed always picks the same victim.
type Scenario struct {
	// Name is the scenario's identity.
	Name string
	// HealAfter is the scheduled network recovery: partitions lift this
	// long after Apply (0 means nothing to heal on a schedule).
	HealAfter time.Duration

	apply func(p *Plan, nodes []string)
}

// Apply scripts the scenario onto the plan. Partition-style scenarios
// also schedule their heal (HealAfter).
func (s Scenario) Apply(p *Plan, nodes []string) {
	if s.apply != nil {
		s.apply(p, nodes)
	}
	if s.HealAfter > 0 {
		p.HealPartitionsAfter(s.HealAfter)
	}
}

// Heal clears every fault the scenario installed.
func (s Scenario) Heal(p *Plan) { p.Heal() }

// victim draws the scenario's fault victim from nodes[1:] — nodes[0] is
// the observer. The draw is seeded by the plan and the scenario name,
// so seed and membership fully determine it.
func victim(p *Plan, name string, nodes []string) string {
	if len(nodes) < 2 {
		return nodes[0]
	}
	rng := sim.NewSource(p.Seed(), "chaos:scenario:"+name)
	return nodes[1+rng.Intn(len(nodes)-1)]
}

// pairs visits every ordered pair of distinct nodes.
func pairs(nodes []string, f func(src, dst string)) {
	for _, src := range nodes {
		for _, dst := range nodes {
			if src != dst {
				f(src, dst)
			}
		}
	}
}

// Scenarios is the standard matrix, in documentation order.
var Scenarios = []Scenario{
	// No faults: the control run every other scenario is compared
	// against.
	{
		Name:  "baseline",
		apply: func(p *Plan, nodes []string) {},
	},
	// Lossy, slow network: 1-4ms latency ±1ms jitter, 5% drops, 2% error
	// responses on every pair.
	{
		Name: "degraded",
		apply: func(p *Plan, nodes []string) {
			lat := sim.NewSource(p.Seed(), "chaos:scenario:degraded:latency")
			pairs(nodes, func(src, dst string) {
				p.SetRule(src, dst, Rule{
					Latency: time.Duration(lat.Uniform(1, 4) * float64(time.Millisecond)),
					Jitter:  time.Millisecond,
					Drop:    0.05,
					Error:   0.02,
				})
			})
		},
	},
	// One node symmetrically cut off from every peer, healing on a
	// schedule.
	{
		Name:      "partition",
		HealAfter: 400 * time.Millisecond,
		apply: func(p *Plan, nodes []string) {
			v := victim(p, "partition", nodes)
			for _, n := range nodes {
				if n != v {
					p.Partition(v, n)
				}
			}
		},
	},
	// Mild uniform latency plus one node on a slow disk (2ms per fsync).
	{
		Name: "high-load",
		apply: func(p *Plan, nodes []string) {
			pairs(nodes, func(src, dst string) {
				p.SetRule(src, dst, Rule{Latency: 500 * time.Microsecond, Jitter: 250 * time.Microsecond})
			})
			p.SetFsyncDelay(victim(p, "high-load", nodes), 2*time.Millisecond)
		},
	},
}

// Names lists the scenario names in matrix order.
func Names() []string {
	out := make([]string, len(Scenarios))
	for i, s := range Scenarios {
		out[i] = s.Name
	}
	return out
}

// Lookup resolves a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}
