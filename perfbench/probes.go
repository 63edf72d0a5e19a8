package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"precinct"
	"precinct/internal/cache"
	"precinct/internal/energy"
	"precinct/internal/geo"
	"precinct/internal/metrics"
	"precinct/internal/mobility"
	"precinct/internal/radio"
	"precinct/internal/region"
	"precinct/internal/routing"
	"precinct/internal/sim"
	"precinct/internal/workload"
)

// Layer probes time batches of calls into one layer's public functions.
// Each probe builds its layer through the public constructor with the
// workload's own parameters (N, area, range, regions, catalog, Zipf
// skew, cache capacity and policy, seed) and reports the median cost
// per call over its batches. Every batch is a span under the probe's.

const (
	probeBatches  = 15
	probeBatchOps = 2000
)

// prober runs the batches of one workload's probes.
type prober struct {
	s      precinct.Scenario
	rec    *recorder
	parent int
	rng    *rand.Rand
	out    map[string]float64
}

// probeLayers runs every probe for scenario s and returns the median
// ns per call keyed by metric name, plus the cache probe's evictions
// per put.
func probeLayers(s precinct.Scenario, rec *recorder, parent int) (map[string]float64, error) {
	p := &prober{s: s, rec: rec, parent: parent, out: map[string]float64{}}
	p.rng = sim.NewRNG(s.Seed).Stream("perfbench/probe")
	for _, probe := range []func() error{p.sim, p.radioRouting, p.region, p.mobility, p.cache, p.metrics, p.workload} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// batches times fn over probeBatches batches of ops calls each; fn runs
// one whole batch. before, when set, prepares each batch outside the
// timing.
func (p *prober) batches(metric string, ops int, before, fn func()) {
	id := p.rec.begin(metric, p.parent)
	per := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		if before != nil {
			before()
		}
		bid := p.rec.begin(fmt.Sprintf("%s/batch%d", metric, b), id)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		p.rec.end(bid)
		per = append(per, float64(d.Nanoseconds())/float64(ops))
	}
	p.rec.end(id)
	p.out[metric] = median(per)
}

func (p *prober) area() geo.Rect {
	return geo.NewRect(geo.Pt(0, 0), geo.Pt(p.s.AreaSide, p.s.AreaSide))
}

// queueDepth is the scheduler depth the sim probe holds: the resident
// per-peer processes of the workload (request and mobility timers, and
// an update timer when updates are on).
func (p *prober) queueDepth() int {
	per := 2
	if p.s.UpdateInterval > 0 {
		per++
	}
	return p.s.Nodes * per
}

func (p *prober) sim() error {
	sched := sim.NewScheduler()
	noop := func() {}
	const horizon = 1000.0
	for i := 0; i < p.queueDepth(); i++ {
		sched.At(p.rng.Float64()*horizon, noop)
	}
	// One At plus one fired event per call keeps the depth constant.
	p.batches("sim.schedule_run_ns", probeBatchOps, nil, func() {
		for i := 0; i < probeBatchOps; i++ {
			sched.At(sched.Now()+p.rng.Float64()*horizon, noop)
			sched.Step(math.Inf(1))
		}
	})
	p.batches("sim.cancel_ns", probeBatchOps, nil, func() {
		for i := 0; i < probeBatchOps; i++ {
			sched.Cancel(sched.At(sched.Now()+p.rng.Float64()*horizon, noop))
		}
	})
	return nil
}

// waypoint builds the workload's mobility model as the library does.
func (p *prober) waypoint(rng *sim.RNG) (*mobility.Waypoint, error) {
	return mobility.NewWaypoint(p.s.Nodes, mobility.WaypointConfig{
		Area: p.area(), MinSpeed: 0.5, MaxSpeed: p.s.MaxSpeed, Pause: p.s.Pause,
	}, rng)
}

// radioRouting probes the neighbour index, broadcast delivery and GPSR
// next-hop selection on one channel: the workload's N, area, range and
// mobility, the clock advancing one simulated second per batch.
func (p *prober) radioRouting() error {
	rng := sim.NewRNG(p.s.Seed)
	sched := sim.NewScheduler()
	mob, err := p.waypoint(rng)
	if err != nil {
		return err
	}
	meter, err := energy.NewMeter(p.s.Nodes, energy.DefaultModel())
	if err != nil {
		return err
	}
	cfg := radio.DefaultConfig()
	cfg.Range = p.s.Range
	cfg.Bandwidth = p.s.Bandwidth
	cfg.LossRate = p.s.LossRate
	loss := make([]*rand.Rand, p.s.Nodes)
	for i := range loss {
		loss[i] = rng.Stream(fmt.Sprintf("loss/%d", i))
	}
	ch, err := radio.New(cfg, sched, mob, meter, loss)
	if err != nil {
		return err
	}
	ch.SetHandler(func(radio.NodeID, radio.Frame) {})
	n := p.s.Nodes
	tick := func() { sched.Run(sched.Now() + 1) }

	p.batches("radio.neighbors_ns", probeBatchOps, tick, func() {
		for i := 0; i < probeBatchOps; i++ {
			ch.Neighbors(radio.NodeID(p.rng.Intn(n)))
		}
	})
	// A search-sized frame; delivery to every neighbour is part of the
	// call, so the queue is drained inside the batch.
	const frameBytes = 64
	const broadcasts = probeBatchOps / 10
	p.batches("radio.broadcast_ns", broadcasts, tick, func() {
		for i := 0; i < broadcasts; i++ {
			ch.Broadcast(radio.NodeID(p.rng.Intn(n)), frameBytes, nil)
		}
		sched.RunAll()
	})

	table, err := region.NewGridN(p.area(), p.s.Regions)
	if err != nil {
		return err
	}
	type hop struct {
		self radio.NodeID
		pos  geo.Point
		nbrs []radio.Neighbor
		dest geo.Point
	}
	var router routing.Router
	router.EnablePlanarCache(n)
	hops := make([]hop, probeBatchOps)
	p.batches("routing.next_hop_ns", probeBatchOps, func() {
		tick()
		router.SetPlanarKey(ch.PlanarKey())
		for i := range hops {
			self := radio.NodeID(p.rng.Intn(n))
			home, _ := table.HomeRegion(workload.Key(p.rng.Intn(p.s.Items)))
			hops[i] = hop{self, ch.Position(self), append(hops[i].nbrs[:0], ch.Neighbors(self)...), home.Center()}
		}
	}, func() {
		for i := range hops {
			var st routing.State
			router.NextHop(hops[i].self, hops[i].pos, hops[i].nbrs, hops[i].dest, &st)
		}
	})
	return nil
}

func (p *prober) region() error {
	table, err := region.NewGridN(p.area(), p.s.Regions)
	if err != nil {
		return err
	}
	pts := make([]geo.Point, probeBatchOps)
	keys := make([]workload.Key, probeBatchOps)
	refill := func() {
		for i := range pts {
			pts[i] = geo.Pt(p.rng.Float64()*p.s.AreaSide, p.rng.Float64()*p.s.AreaSide)
			keys[i] = workload.Key(p.rng.Intn(p.s.Items))
		}
	}
	p.batches("region.locate_ns", probeBatchOps, refill, func() {
		for _, pt := range pts {
			table.Locate(pt)
		}
	})
	p.batches("region.home_region_ns", probeBatchOps, refill, func() {
		for _, k := range keys {
			table.HomeRegion(k)
		}
	})
	p.batches("region.replica_region_ns", probeBatchOps, refill, func() {
		for _, k := range keys {
			table.ReplicaRegion(k)
		}
	})
	return nil
}

func (p *prober) mobility() error {
	mob, err := p.waypoint(sim.NewRNG(p.s.Seed))
	if err != nil {
		return err
	}
	now := 0.0
	nodes := make([]int, probeBatchOps)
	p.batches("mobility.position_ns", probeBatchOps, func() {
		now++
		for i := range nodes {
			nodes[i] = p.rng.Intn(p.s.Nodes)
		}
	}, func() {
		for _, n := range nodes {
			mob.Position(n, now)
		}
	})
	return nil
}

// generator builds the workload's catalog and Zipf request generator.
func (p *prober) generator() (*workload.Generator, error) {
	catalog, err := workload.NewCatalog(workload.CatalogConfig{
		Items: p.s.Items, MinSize: p.s.MinItemSize, MaxSize: p.s.MaxItemSize,
	})
	if err != nil {
		return nil, err
	}
	return workload.NewGenerator(workload.GeneratorConfig{
		Catalog: catalog, ZipfTheta: p.s.ZipfTheta, UpdateZipfTheta: p.s.UpdateZipfTheta,
		RequestInterval: p.s.RequestInterval, UpdateInterval: p.s.UpdateInterval,
	})
}

// cache replays the workload's Zipf key stream against one peer's cache:
// each batch looks every key up, then inserts the batch's distinct
// misses, as a peer does when the fetched items arrive.
func (p *prober) cache() error {
	gen, err := p.generator()
	if err != nil {
		return err
	}
	policy, err := cache.NewPolicy(p.s.Policy, cache.Params{})
	if err != nil {
		return err
	}
	capacity := int64(p.s.CacheFraction * float64(gen.Catalog().TotalSize()))
	c, err := cache.New(capacity, policy)
	if err != nil {
		return err
	}
	getID := p.rec.begin("cache.get_ns", p.parent)
	putID := p.rec.begin("cache.put_ns", p.parent)
	keys := make([]workload.Key, probeBatchOps)
	var misses []cache.Entry
	seen := map[workload.Key]bool{}
	var getNs, putNs []float64
	var puts int
	for b := 0; b < probeBatches; b++ {
		now := float64(b)
		for i := range keys {
			keys[i] = gen.PickKey(p.rng)
		}
		misses = misses[:0]
		clear(seen)

		id := p.rec.begin(fmt.Sprintf("cache.get_ns/batch%d", b), getID)
		t0 := time.Now()
		for _, k := range keys {
			if _, ok := c.Get(k, now); !ok && !seen[k] {
				seen[k] = true
				misses = append(misses, cache.Entry{Key: k, Size: gen.Catalog().Size(k),
					FetchedAt: now, LastAccess: now, TTRExpiry: math.Inf(1)})
			}
		}
		getNs = append(getNs, float64(time.Since(t0).Nanoseconds())/float64(len(keys)))
		p.rec.end(id)

		if len(misses) == 0 {
			continue
		}
		id = p.rec.begin(fmt.Sprintf("cache.put_ns/batch%d", b), putID)
		t0 = time.Now()
		for _, e := range misses {
			c.Put(e, now)
		}
		putNs = append(putNs, float64(time.Since(t0).Nanoseconds())/float64(len(misses)))
		p.rec.end(id)
		puts += len(misses)
	}
	p.rec.end(getID)
	p.rec.end(putID)
	if puts == 0 {
		return fmt.Errorf("cache probe: no misses in %d lookups", probeBatches*probeBatchOps)
	}
	p.out["cache.get_ns"] = median(getNs)
	p.out["cache.put_ns"] = median(putNs)
	p.out["cache.evictions_per_put"] = float64(c.Evictions()) / float64(puts)
	return nil
}

func (p *prober) metrics() error {
	coll := metrics.NewCollectorCapped(precinct.DefaultSampleCap)
	lat := make([]float64, probeBatchOps)
	class := make([]metrics.HitClass, probeBatchOps)
	p.batches("metrics.request_ns", probeBatchOps, func() {
		for i := range lat {
			lat[i] = p.rng.ExpFloat64() * 0.05
			class[i] = metrics.HitClass(p.rng.Intn(int(metrics.Failure)))
		}
	}, func() {
		for i := range lat {
			coll.Request(lat[i], 4096, class[i], false)
		}
	})
	return nil
}

func (p *prober) workload() error {
	gen, err := p.generator()
	if err != nil {
		return err
	}
	p.batches("workload.pick_key_ns", probeBatchOps, nil, func() {
		for i := 0; i < probeBatchOps; i++ {
			gen.PickKey(p.rng)
		}
	})
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
