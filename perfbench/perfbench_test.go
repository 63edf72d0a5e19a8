package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"precinct"
)

// shrunk returns the workload's scenarios cut down to a fraction of a
// second each, keeping every layer the full workload exercises.
func shrunk(t *testing.T, w workloadDef) []precinct.Scenario {
	t.Helper()
	scs := w.scenarios(7)
	for i := range scs {
		s := &scs[i]
		switch w.name {
		case "city-4k":
			s.Nodes = 400
			s.AreaSide = 1200 * math.Sqrt(400/80.0)
			s.Regions = 49
			s.Duration, s.Warmup = 40, 10
		case "paper-consistency":
			s.Duration, s.Warmup = 200, 50
		default:
			s.Duration, s.Warmup = 60, 15
		}
	}
	return scs
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, traced: traced, scenarios: shrunk(t, w)}
			out, err := bench(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res := out.result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.stamp.Problems)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, d.name, v.Value)
				case v.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w.name, traced, d.name, v.Unit, d.unit)
				}
			}
			if out.stamp.ReportDigest == "" || out.stamp.GoVersion == "" || out.stamp.NumCPU < 1 {
				t.Errorf("%s traced=%v: incomplete stamp %+v", w.name, traced, out.stamp)
			}
			if traced {
				var sum float64
				for _, l := range cpuLayers {
					sum += res.Metrics[l+".cpu_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: cpu shares sum to %v", w.name, sum)
				}
			}
		}
	}
}

// A result whose requests are not conserved, or whose traced run
// differs from the untraced one, or whose digest changes between
// iterations, must fail the gate.
func TestGateFiresOnDoctoredReport(t *testing.T) {
	s := precinct.DefaultScenario()
	s.Duration, s.Warmup = 120, 30
	good, err := precinct.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkConservation([]precinct.Result{good}); len(p) != 0 {
		t.Fatalf("honest result fails conservation: %v", p)
	}
	if p := checkSameResults([]precinct.Result{good}, []precinct.Result{good}); len(p) != 0 {
		t.Fatalf("identical results differ: %v", p)
	}

	leaky := good
	leaky.Report.Failures++
	if p := checkConservation([]precinct.Result{leaky}); len(p) != 1 {
		t.Errorf("conservation gate missed a lost request: %v", p)
	}
	if p := checkSameResults([]precinct.Result{good}, []precinct.Result{leaky}); len(p) != 1 {
		t.Errorf("tracing gate missed a perturbed report: %v", p)
	}

	moved := good
	moved.Report.ByClass = map[string]uint64{}
	for k, v := range good.Report.ByClass {
		moved.Report.ByClass[k] = v
	}
	moved.Report.ByClass["remote"]++
	if p := checkSameResults([]precinct.Result{good}, []precinct.Result{moved}); len(p) != 1 {
		t.Errorf("tracing gate missed a changed serving class: %v", p)
	}
	_, p, err := checkDigests([][]precinct.Result{{good}, {good}, {moved}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 {
		t.Errorf("digest gate missed a changed iteration: %v", p)
	}

	res, err := makeResult(endToEnd, map[string]float64{
		"wall_s_per_sim_s": 1, "completed_req_per_wall_s": 1, "setup_s": 1, "peak_rss_mib": 1,
		"allocs_per_event": 1, "byte_hit_ratio": 1, "msgs_per_req": 1,
	}, 3, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("a gate finding must make the result incorrect: %+v", res)
	}
}

func TestLayerOfAttributesToNearestInternalFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Standard-library frames go to the calling layer.
		{[]string{"runtime.mallocgc", "precinct/internal/node.(*Network).send", "precinct/internal/sim.(*Scheduler).Run"}, "node"},
		{[]string{"container/heap.down", "container/heap.Pop", "precinct/internal/sim.(*Scheduler).Run"}, "sim"},
		// geo frames go to their caller.
		{[]string{"precinct/internal/geo.Point.Dist2", "precinct/internal/region.(*Table).Locate", "precinct/internal/node.(*Peer).move"}, "region"},
		{[]string{"precinct/internal/geo.Rect.Contains", "math.Sqrt", "precinct/internal/radio.(*Channel).Neighbors.func1"}, "radio"},
		// Sub-packages belong to their module.
		{[]string{"precinct/internal/invariant/fuzzgen.Expand"}, "invariant"},
		// Closures and methods keep their package.
		{[]string{"precinct/internal/consistency.(*TTR).Observe", "precinct/internal/node.(*Network).onUpdate.func2"}, "consistency"},
		// No internal frame at all: runtime.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"precinct.runWithStats", "main.runIteration.func1", "precinct/internal/geo.Pt"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}

	shares, err := cpuShares([]sample{
		{stack: cases[0].stack, weight: 3},
		{stack: cases[2].stack, weight: 1},
		{stack: cases[4].stack, weight: 2},
		{stack: cases[6].stack, weight: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"node": 0.3, "region": 0.1, "other": 0.2, "runtime": 0.4}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := cpuShares(nil); err == nil {
		t.Error("an empty profile must be an error, not shares that sum to 0")
	}
}

// The sweep rebuilds Fig6To8's scenarios; running them must give the
// library's own figure values.
func TestSweepMatchesFig6To8(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 15-scenario sweep twice")
	}
	const seed, duration, warmup = 3, 60, 15
	fig6, fig7, fig8, err := precinct.Fig6To8(precinct.ExperimentConfig{Seed: seed, Duration: duration, Warmup: warmup, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	scs := fig6To8Sweep(seed)
	if len(scs) != 15 {
		t.Fatalf("sweep has %d scenarios, want 15", len(scs))
	}
	for i, s := range scs {
		s.Duration, s.Warmup = duration, warmup
		res, err := precinct.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		series, point := i/len(precinct.UpdateRatios), i%len(precinct.UpdateRatios)
		r := res.Report
		if got, want := float64(r.ControlMessages), fig6.Series[series].Y[point]; got != want {
			t.Errorf("%s: control messages %v, Fig6To8 %v", s.Name, got, want)
		}
		if got, want := r.FalseHitRatio, fig7.Series[series].Y[point]; got != want {
			t.Errorf("%s: false hit ratio %v, Fig6To8 %v", s.Name, got, want)
		}
		if got, want := r.MeanLatency, fig8.Series[series].Y[point]; got != want {
			t.Errorf("%s: mean latency %v, Fig6To8 %v", s.Name, got, want)
		}
	}
}

func TestCheckLoadRefusesMoreClientsThanProcs(t *testing.T) {
	sweep, err := findWorkload("fig6-8-sweep")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(sweep.clients - 1)
	defer runtime.GOMAXPROCS(prev)
	if err := checkLoad(sweep); err == nil {
		t.Error("sweep accepted with fewer procs than clients")
	}
	single, err := findWorkload("paper-consistency")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLoad(single); err != nil {
		t.Errorf("single-client workload refused: %v", err)
	}
}

func TestEveryScenarioIsSequential(t *testing.T) {
	for _, w := range workloads {
		for _, s := range w.scenarios(1) {
			if s.Shards != 0 {
				t.Errorf("%s/%s: Shards %d", w.name, s.Name, s.Shards)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%s/%s: %v", w.name, s.Name, err)
			}
		}
	}
	w, err := findWorkload("city-4k")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: w, scenarios: w.scenarios(1)}
	cfg.scenarios[0].Shards = 2
	if _, err := bench(cfg); err == nil || !strings.Contains(err.Error(), "sequential") {
		t.Errorf("a sharded scenario must be refused, got %v", err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	iv := [][2]float64{{1, 3}, {2, 4}, {6, 7}, {9, 12}}
	if got := covered(iv, 0, 10); got != 5 {
		t.Errorf("covered = %v, want 5", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}

func TestPoolUse(t *testing.T) {
	it := iteration{wall: 10, jobs: [][2]float64{{0, 4}, {0, 6}, {4, 10}, {6, 8}}}
	busy, idle := poolUse(it, 2)
	if busy != 0.9 || idle != 2 {
		t.Errorf("poolUse = %v, %v; want 0.9, 2", busy, idle)
	}
}

func TestSeededCopiesNeverShareASeed(t *testing.T) {
	seen := map[int64]int64{}
	for seed := int64(0); seed < 5; seed++ {
		for _, s := range seeded(precinct.DefaultScenario(), seed, 3) {
			if prev, ok := seen[s.Seed]; ok {
				t.Errorf("benchmark seeds %d and %d both run scenario seed %d", prev, seed, s.Seed)
			}
			seen[s.Seed] = seed
		}
	}
}

func TestElapsedWithNextRound(t *testing.T) {
	// Three rounds took 30 s: a fourth of 10 s would end at 40 s.
	if got := elapsedWithNextRound(30, 3); got != 40 {
		t.Errorf("elapsedWithNextRound(30, 3) = %v, want 40", got)
	}
}

// BENCHMARK.json at the repository root lists the same metrics.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
}
