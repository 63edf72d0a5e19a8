package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"precinct"
	"precinct/internal/pool"
	"precinct/internal/trace"
)

// config is one invocation of the benchmark.
type config struct {
	workload  workloadDef
	seed      int64
	seconds   float64 // how long the closed loop of untraced passes lasts
	traced    bool
	scenarios []precinct.Scenario
}

// output is everything one invocation produces.
type output struct {
	result result
	stamp  stamp
	spans  []span
}

// Set-up is timed in rounds interleaved with the measured passes, so
// the reps sample the host over the whole run rather than one burst:
// each round makes at least minSetupReps reps, and more while the round
// has taken less than setupRoundBudget, up to maxSetupReps. The median over
// every rep of the run is reported.
const (
	minSetupReps     = 2
	maxSetupReps     = 10
	setupRoundBudget = 250 * time.Millisecond
)

func bench(cfg config) (output, error) {
	for _, s := range cfg.scenarios {
		if s.Shards != 0 {
			return output{}, fmt.Errorf("scenario %s: the benchmark measures sequential runs, got Shards %d", s.Name, s.Shards)
		}
	}
	rec := newRecorder()
	st := newStamp(cfg)
	root := rec.begin(cfg.workload.name, -1)

	var res result
	var err error
	if cfg.traced {
		res, err = tracedRun(cfg, rec, root, &st)
	} else {
		res, err = untracedRuns(cfg, rec, root, &st)
	}
	if err != nil {
		return output{}, err
	}
	rec.end(root)
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return output{}, fmt.Errorf("metric %s is not finite: %v", name, v.Value)
		}
	}
	return output{result: res, stamp: st, spans: rec.finish()}, nil
}

// setupRound times Scenario.Validate, which builds every layer of the
// simulation exactly as a run does, over all of the workload's
// scenarios, and appends one sample per rep.
func setupRound(samples []float64, scs []precinct.Scenario, rec *recorder, parent int) ([]float64, error) {
	id := rec.begin("setup", parent)
	defer rec.end(id)
	var spent time.Duration
	for reps := 0; reps < minSetupReps || (spent < setupRoundBudget && reps < maxSetupReps); reps++ {
		runtime.GC()
		rid := rec.begin(fmt.Sprintf("setup/rep%d", len(samples)), id)
		t0 := time.Now()
		for _, s := range scs {
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("set up %s: %w", s.Name, err)
			}
		}
		d := time.Since(t0)
		rec.end(rid)
		spent += d
		samples = append(samples, d.Seconds())
	}
	return samples, nil
}

// iteration is one closed-loop pass over the workload's scenarios.
type iteration struct {
	wall    float64 // host seconds for the whole pass
	results []precinct.Result
	events  []uint64
	jobs    [][2]float64 // per scenario: start and end, seconds into the pass
	traces  [][]byte     // per scenario JSON-lines stream, traced passes only

	mallocs, gcCycles uint64
	gcPause           time.Duration
}

// runIteration runs every scenario once through the worker pool, with
// the workload's number of clients. A traced pass streams each run's
// protocol events into memory with RunTraced.
func runIteration(cfg config, rec *recorder, id int, traced bool) (iteration, error) {
	n := len(cfg.scenarios)
	it := iteration{
		results: make([]precinct.Result, n),
		events:  make([]uint64, n),
		jobs:    make([][2]float64, n),
	}
	if traced {
		it.traces = make([][]byte, n)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := pool.Run(n, cfg.workload.clients, func(i int) error {
		s := cfg.scenarios[i]
		jid := rec.begin("job/"+s.Name, id)
		defer rec.end(jid)
		start := time.Since(t0).Seconds()
		var err error
		if traced {
			var buf bytes.Buffer
			it.results[i], err = precinct.RunTraced(s, &buf)
			it.traces[i] = buf.Bytes()
		} else {
			var stats precinct.RunStats
			it.results[i], stats, err = precinct.RunWithStats(s)
			it.events[i] = stats.Events
		}
		it.jobs[i] = [2]float64{start, time.Since(t0).Seconds()}
		if err != nil {
			return fmt.Errorf("run %s: %w", s.Name, err)
		}
		return nil
	})
	it.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	it.mallocs = after.Mallocs - before.Mallocs
	it.gcCycles = uint64(after.NumGC - before.NumGC)
	it.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return it, err
}

// untracedRuns is the end-to-end measurement: a closed loop of untraced
// passes for about cfg.seconds (at least one pass), reporting the median
// pass. A pass starts only if a round of average length (set-up round
// plus pass) still ends within cfg.seconds, so a run does not overrun
// its time by up to a whole pass.
func untracedRuns(cfg config, rec *recorder, root int, st *stamp) (result, error) {
	var iters []iteration
	var setup []float64
	var rss float64
	t0 := time.Now()
	for len(iters) == 0 || elapsedWithNextRound(time.Since(t0).Seconds(), len(iters)) <= cfg.seconds {
		var err error
		if setup, err = setupRound(setup, cfg.scenarios, rec, root); err != nil {
			return result{}, err
		}
		id := rec.begin(fmt.Sprintf("run/untraced%d", len(iters)), root)
		it, err := runIteration(cfg, rec, id, false)
		rec.end(id)
		if err != nil {
			return result{}, err
		}
		if len(iters) == 0 {
			// The peak after one pass: later passes reuse the heap, and
			// their number depends on the host's speed.
			if rss, err = peakRSSMiB(); err != nil {
				return result{}, err
			}
		}
		iters = append(iters, it)
	}
	st.Iterations = len(iters)
	st.SetupReps = len(setup)

	all := make([][]precinct.Result, len(iters))
	var problems []string
	for i, it := range iters {
		all[i] = it.results
		problems = append(problems, checkConservation(it.results)...)
	}
	digest, dp, err := checkDigests(all)
	if err != nil {
		return result{}, err
	}
	st.ReportDigest = digest
	problems = append(problems, dp...)

	simSeconds := simulatedSeconds(cfg.scenarios)
	var wallPerSim, reqPerWall, allocs []float64
	for _, it := range iters {
		t := sumReports(it.results)
		wallPerSim = append(wallPerSim, it.wall/simSeconds)
		reqPerWall = append(reqPerWall, float64(t.completed)/it.wall)
		allocs = append(allocs, float64(it.mallocs)/float64(sumEvents(it.events)))
	}
	t := sumReports(iters[0].results)
	st.LatencySamples, st.MinBeyondP95 = t.completed, t.minBeyondP95
	st.Problems = problems

	m := map[string]float64{
		"wall_s_per_sim_s":         median(wallPerSim),
		"completed_req_per_wall_s": median(reqPerWall),
		"setup_s":                  median(setup),
		"peak_rss_mib":             rss,
		"allocs_per_event":         median(allocs),
		"byte_hit_ratio":           t.byteHitRatio(),
		"msgs_per_req":             t.ratio(t.msgs(), t.completed),
	}
	return makeResult(endToEnd, m, len(iters)*len(cfg.scenarios), problems)
}

// elapsedWithNextRound is when one more round would end, taking it to
// last as long as the mean of the rounds so far.
func elapsedWithNextRound(elapsed float64, rounds int) float64 {
	return elapsed * float64(rounds+1) / float64(rounds)
}

// tracedRun is the per-layer measurement: one untraced pass (the
// baseline for the tracing overhead and the source of event counts),
// one traced pass under a CPU profile with its trace streamed into
// memory, then the layer probes.
func tracedRun(cfg config, rec *recorder, root int, st *stamp) (result, error) {
	id := rec.begin("build", root)
	for _, s := range cfg.scenarios {
		if err := s.Validate(); err != nil {
			rec.end(id)
			return result{}, fmt.Errorf("set up %s: %w", s.Name, err)
		}
	}
	rec.end(id)

	id = rec.begin("run/untraced0", root)
	plain, err := runIteration(cfg, rec, id, false)
	rec.end(id)
	if err != nil {
		return result{}, err
	}

	id = rec.begin("run/traced", root)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		rec.end(id)
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	stopHeap := sampleHeapPeak()
	traced, err := runIteration(cfg, rec, id, true)
	heapPeak := stopHeap()
	pprof.StopCPUProfile()
	rec.end(id)
	if err != nil {
		return result{}, err
	}
	st.Iterations = 2

	problems := append(checkConservation(plain.results), checkConservation(traced.results)...)
	problems = append(problems, checkSameResults(plain.results, traced.results)...)
	if st.ReportDigest, err = reportDigest(plain.results); err != nil {
		return result{}, err
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(samples)
	if err != nil {
		return result{}, err
	}
	remoteP99, err := remoteLatencyP99(cfg.scenarios, traced.traces)
	if err != nil {
		return result{}, err
	}

	pid := rec.begin("probes", root)
	probes, err := probeLayers(cfg.scenarios[0], rec, pid)
	rec.end(pid)
	if err != nil {
		return result{}, err
	}

	t := sumReports(plain.results)
	st.LatencySamples, st.MinBeyondP95 = t.completed, t.minBeyondP95
	st.Problems = problems
	events := sumEvents(plain.events)
	busy, tailIdle := poolUse(plain, cfg.workload.clients)

	m := map[string]float64{
		"sim.events":                   float64(events),
		"sim.events_per_completed_req": t.ratio(events, t.completed),

		"radio.frames":               float64(t.frames),
		"radio.deliveries":           float64(t.deliveries),
		"radio.deliveries_per_frame": t.ratio(t.deliveries, t.frames),
		"radio.bytes_on_air":         float64(t.bytesOnAir),
		"radio.drops":                float64(t.drops),

		"routing.failures": float64(t.routingFailures),

		"node.search_msgs_per_req":       t.ratio(t.search, t.completed),
		"node.control_msgs_per_req":      t.ratio(t.control, t.completed),
		"node.maintenance_msgs":          float64(t.maintenance),
		"node.handoffs":                  float64(t.handoffs),
		"node.stranded_keys":             float64(t.stranded),
		"node.lost_keys":                 float64(t.lost),
		"node.served_local_share":        t.ratio(t.byClass["local"], t.completed),
		"node.served_regional_share":     t.ratio(t.byClass["regional"], t.completed),
		"node.served_enroute_share":      t.ratio(t.byClass["en-route"], t.completed),
		"node.served_remote_share":       t.ratio(t.byClass["remote"], t.completed),
		"node.remote_latency_p99_sim_ms": remoteP99 * 1000,
		"node.request_fail_ratio":        t.ratio(t.failures, t.requests),
		"node.req_latency_p50_sim_ms":    t.weighted(func(r precinct.Report) float64 { return r.P50Latency }) * 1000,
		"node.req_latency_p95_sim_ms":    t.weighted(func(r precinct.Report) float64 { return r.P95Latency }) * 1000,

		"consistency.updates_issued":  float64(t.updates),
		"consistency.polls_issued":    float64(t.polls),
		"consistency.updates_applied": float64(t.applied),
		"consistency.lost_updates":    float64(t.lostUpdates),
		"consistency.false_hits":      float64(t.falseHits),
		"consistency.false_hit_ratio": t.weighted(func(r precinct.Report) float64 { return r.FalseHitRatio }),

		"energy.mj_per_req": t.energy / float64(t.requests),

		"pool.worker_busy_share": busy,
		"pool.tail_idle_s":       tailIdle,

		"trace.overhead_ratio": traced.wall / plain.wall,

		"runtime.gc_cycles":     float64(traced.gcCycles),
		"runtime.gc_pause_ms":   float64(traced.gcPause) / float64(time.Millisecond),
		"runtime.heap_peak_mib": heapPeak,
	}
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	for k, v := range probes {
		m[k] = v
	}
	return makeResult(perLayer, m, 2*len(cfg.scenarios), problems)
}

// makeResult checks that m holds exactly the metrics of defs and builds
// the result line.
func makeResult(defs []metricDef, m map[string]float64, attempted int, problems []string) (result, error) {
	if len(m) != len(defs) {
		return result{}, fmt.Errorf("computed %d metrics, the table lists %d", len(m), len(defs))
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not computed", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	failed := min(len(problems), attempted)
	return result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

// poolUse is the sweep pool's use of its workers in one pass: the sum
// of per-scenario host time over workers x pass time, and the
// worker-seconds left idle at the tail, after the queue ran dry.
func poolUse(it iteration, workers int) (busy, tailIdle float64) {
	workers = min(workers, len(it.jobs))
	ends := make([]float64, len(it.jobs))
	var sum float64
	for i, j := range it.jobs {
		sum += j[1] - j[0]
		ends[i] = j[1]
	}
	sort.Float64s(ends)
	// When the k-th last job finished, k-1 workers had already gone idle.
	for k := 2; k <= workers; k++ {
		tailIdle += it.wall - ends[len(ends)-k]
	}
	return sum / (float64(workers) * it.wall), tailIdle
}

// sampleHeapPeak polls the live heap until the returned stop function
// is called; stop waits for the poller to exit and returns the peak in
// MiB. runtime/metrics reads do not stop the world.
func sampleHeapPeak() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return float64(peak) / (1 << 20)
	}
}

// remoteLatencyP99 is the 99th percentile of remote-hit latencies in
// seconds, from the traced pass's request completions after warm-up,
// pooled over the scenarios. Zero when no request was served remotely.
func remoteLatencyP99(scs []precinct.Scenario, traces [][]byte) (float64, error) {
	var lat []float64
	for i, data := range traces {
		events, err := trace.DecodeLines(data)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", scs[i].Name, err)
		}
		for _, e := range events {
			if e.Kind == trace.RequestCompleted && e.Class == "remote" && e.Time >= scs[i].Warmup {
				lat = append(lat, e.Latency)
			}
		}
	}
	if len(lat) == 0 {
		return 0, nil
	}
	sort.Float64s(lat)
	return lat[int(math.Ceil(0.99*float64(len(lat))))-1], nil
}

func simulatedSeconds(scs []precinct.Scenario) float64 {
	var t float64
	for _, s := range scs {
		t += s.Duration
	}
	return t
}

func sumEvents(ev []uint64) uint64 {
	var t uint64
	for _, e := range ev {
		t += e
	}
	return t
}

// totals are a pass's simulated statistics summed over its scenarios.
type totals struct {
	reports []precinct.Report

	requests, completed, failures    uint64
	search, control, maintenance     uint64
	updates, polls, falseHits        uint64
	frames, deliveries, bytesOnAir   uint64
	drops, routingFailures, handoffs uint64
	stranded, lost, applied          uint64
	lostUpdates, minBeyondP95        uint64
	byClass                          map[string]uint64
	energy                           float64
}

func sumReports(results []precinct.Result) totals {
	t := totals{byClass: map[string]uint64{}, minBeyondP95: math.MaxUint64}
	for _, r := range results {
		rep := r.Report
		t.reports = append(t.reports, rep)
		t.requests += rep.Requests
		t.completed += rep.Completed
		t.failures += rep.Failures
		t.search += rep.SearchMessages
		t.control += rep.ControlMessages
		t.maintenance += rep.MaintenanceMessages
		t.updates += rep.UpdatesIssued
		t.polls += rep.PollsIssued
		for _, n := range rep.StaleByClass {
			t.falseHits += n
		}
		for c, n := range rep.ByClass {
			t.byClass[c] += n
		}
		t.energy += rep.EnergyTotal
		t.minBeyondP95 = min(t.minBeyondP95, rep.Completed/20)

		t.frames += r.Radio.BroadcastFrames + r.Radio.UnicastFrames
		t.deliveries += r.Radio.Deliveries
		t.bytesOnAir += r.Radio.BytesOnAir
		t.drops += r.Radio.Drops
		t.routingFailures += r.Protocol.RoutingFailures
		t.handoffs += r.Protocol.Handoffs
		t.stranded += r.Protocol.StrandedKeys
		t.lost += r.Protocol.LostKeys
		t.applied += r.Protocol.UpdatesApplied
		t.lostUpdates += r.Protocol.LostUpdates
	}
	return t
}

func (t totals) msgs() uint64 { return t.search + t.control + t.maintenance }

func (t totals) ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// weighted is the completed-request-weighted mean of a per-report
// statistic: the statistic itself for a single run, and for several the
// value a request drawn at random from all of them sees.
func (t totals) weighted(f func(precinct.Report) float64) float64 {
	if t.completed == 0 {
		return 0
	}
	var sum float64
	for _, r := range t.reports {
		sum += f(r) * float64(r.Completed)
	}
	return sum / float64(t.completed)
}

func (t totals) byteHitRatio() float64 {
	return t.weighted(func(r precinct.Report) float64 { return r.ByteHitRatio })
}
