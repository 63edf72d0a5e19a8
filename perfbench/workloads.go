package main

import (
	"fmt"
	"math"

	"precinct"
)

// A workloadDef is one set of inputs the benchmark runs. Every workload is
// a closed loop: a client starts its next simulation only when the
// previous one has finished.
type workloadDef struct {
	name string
	// scenarios builds the simulations one client iteration runs, all
	// seeded from the benchmark's --seed.
	scenarios func(seed int64) []precinct.Scenario
	// clients is the number of concurrent closed-loop clients: 1 for
	// single-run workloads, the sweep's worker count otherwise.
	clients int
}

// sweepWorkers is the fig6-8-sweep worker count, matching the two-core
// hosts the baselines were taken on. It is fixed rather than NumCPU so
// that the workload is the same on every host; a host with fewer
// usable cores is refused (see checkLoad).
const sweepWorkers = 2

var workloads = []workloadDef{
	{name: "paper-consistency", scenarios: paperConsistency, clients: 1},
	{name: "city-4k", scenarios: city4k, clients: 1},
	{name: "fig6-8-sweep", scenarios: fig6To8Sweep, clients: sweepWorkers},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// sequential pins the execution mode the benchmark measures: the
// sequential event loop, whatever the scenario defaults become.
func sequential(s precinct.Scenario) precinct.Scenario {
	s.Shards = 0
	return s
}

// seeded returns k copies of s, named s.Name/i and seeded seed*k+i, so
// that distinct benchmark seeds never share a copy's seed. How much work
// a simulated second takes depends on the seed's mobility and key draws;
// a pass of several shorter runs on different seeds averages that out
// where one long run would not.
func seeded(s precinct.Scenario, seed int64, k int) []precinct.Scenario {
	out := make([]precinct.Scenario, k)
	for i := range out {
		c := sequential(s)
		c.Name = fmt.Sprintf("%s/%d", s.Name, i)
		c.Seed = seed*int64(k) + int64(i)
		out[i] = c
	}
	return out
}

// paperConsistency is the paper's Section 6 environment under write
// pressure: 80 peers in 9 grid regions, fast waypoint mobility, and one
// update per request (T_upd/T_req = 1) under Push-with-Adaptive-Pull.
// Region lookup and neighbour queries are cheap at this size, so the
// scheduler, node and consistency layers dominate. A pass is three
// runs of 1000 simulated seconds on different seeds (see seeded), about
// ten host seconds.
func paperConsistency(seed int64) []precinct.Scenario {
	s := precinct.DefaultScenario()
	s.Name = "paper-consistency"
	s.Nodes = 80
	s.AreaSide = 1200
	s.Regions = 9
	s.MaxSpeed = 20
	s.LossRate = 0
	s.Policy = "gd-ld"
	s.CacheFraction = 0.015
	s.RequestInterval = 10
	s.UpdateInterval = 10
	s.Consistency = "push-adaptive-pull"
	s.Warmup = 300
	s.Duration = 1000
	return seeded(s, seed, 3)
}

// city4k is a read-only run at city scale with the paper's node
// density: the area grows with sqrt(N/80) and regions stay about 400 m
// wide. The costs that grow with N (radio grid queries, region lookup,
// waypoint positions, a deeper event heap) dominate; the consistency
// layer does no work. A pass is two runs of 80 simulated seconds on
// different seeds (see seeded), about fifteen host seconds; half of
// each run is warm-up so the caches hold keys and handoffs carry them.
func city4k(seed int64) []precinct.Scenario {
	const nodes = 4000
	s := precinct.DefaultScenario()
	s.Name = "city-4k"
	s.Nodes = nodes
	s.AreaSide = 1200 * math.Sqrt(nodes/80.0)
	s.Regions = 441
	s.MaxSpeed = 6
	s.LossRate = 0
	s.RequestInterval = 30
	s.UpdateInterval = 0
	s.Consistency = "none"
	s.Warmup = 40
	s.Duration = 80
	return seeded(s, seed, 2)
}

// fig6To8Sweep rebuilds the 15 scenarios precinct.Fig6To8 runs (three
// consistency schemes at T_upd/T_req 1-5, 80 peers at 6 m/s) at the
// length precinct-bench -quick uses. Fig6To8 itself hides its
// scenarios, so they are rebuilt here; TestSweepMatchesFig6To8 pins
// them to the library's figures.
func fig6To8Sweep(seed int64) []precinct.Scenario {
	var out []precinct.Scenario
	for _, scheme := range []string{"plain-push", "pull-every-time", "push-adaptive-pull"} {
		for _, ratio := range precinct.UpdateRatios {
			s := precinct.DefaultScenario()
			s.Name = fmt.Sprintf("consistency/%s/%.0f", scheme, ratio)
			s.Seed = seed
			s.Nodes = 80
			s.MaxSpeed = 6
			s.Consistency = scheme
			s.UpdateInterval = s.RequestInterval * ratio
			s.Duration = sweepDuration
			s.Warmup = sweepWarmup
			out = append(out, sequential(s))
		}
	}
	return out
}

// The -quick figure length of precinct-bench.
const (
	sweepDuration = 600
	sweepWarmup   = 150
)
