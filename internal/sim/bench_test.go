package sim

import (
	"math"
	"math/rand"
	"testing"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		if s.Len() >= 1024 {
			s.Run(s.Now() + 2)
		}
	}
}

func BenchmarkSelfRescheduling(b *testing.B) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.After(1, tick)
	b.ResetTimer()
	s.Run(float64(b.N))
	if count == 0 {
		b.Fatal("no ticks")
	}
}

func BenchmarkCancel(b *testing.B) {
	s := NewScheduler()
	handles := make([]Handle, 0, 1024)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handles = append(handles, s.At(float64(i%1000)+s.Now()+1, fn))
		if len(handles) == cap(handles) {
			for _, h := range handles {
				s.Cancel(h)
			}
			handles = handles[:0]
		}
	}
}

// BenchmarkSameTimeBurst models a broadcast fan-out: many events queued
// at one instant (one delivery per neighbor), drained in FIFO order.
// This is the dominant scheduler pattern during regional floods.
func BenchmarkSameTimeBurst(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	const burst = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.Now() + 1
		for j := 0; j < burst; j++ {
			s.At(at, fn)
		}
		s.Run(at)
	}
}

func BenchmarkRNGStream(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Stream("component")
	}
}

// deepDepths are the resident queue depths the perfbench scheduler
// probe holds: 240 events for paper-consistency (80 peers × 3
// processes) and 8,000 for city-4k (4,000 peers × 2). The shallow
// benches above cap the heap at 1,024 and so hide how the per-event
// cost grows with depth.
var deepDepths = []struct {
	name  string
	depth int
}{
	{"depth=240", 240},
	{"depth=8000", 8000},
}

// fillDeep queues depth events at random times in [0, horizon).
func fillDeep(s *Scheduler, rng *rand.Rand, depth int, horizon float64, fn func()) {
	for i := 0; i < depth; i++ {
		s.At(rng.Float64()*horizon, fn)
	}
}

// BenchmarkScheduleRunDeep schedules one event and fires one per
// iteration, holding the queue at a constant resident depth.
func BenchmarkScheduleRunDeep(b *testing.B) {
	for _, d := range deepDepths {
		b.Run(d.name, func(b *testing.B) {
			const horizon = 1000.0
			s := NewScheduler()
			rng := rand.New(rand.NewSource(1))
			fn := func() {}
			fillDeep(s, rng, d.depth, horizon, fn)
			inf := math.Inf(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.At(s.Now()+rng.Float64()*horizon, fn)
				s.Step(inf)
			}
		})
	}
}

// BenchmarkCancelDeep schedules and cancels one event per iteration
// against a queue held at a constant resident depth.
func BenchmarkCancelDeep(b *testing.B) {
	for _, d := range deepDepths {
		b.Run(d.name, func(b *testing.B) {
			const horizon = 1000.0
			s := NewScheduler()
			rng := rand.New(rand.NewSource(1))
			fn := func() {}
			fillDeep(s, rng, d.depth, horizon, fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Cancel(s.At(s.Now()+rng.Float64()*horizon, fn))
			}
		})
	}
}
