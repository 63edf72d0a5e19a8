package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.At(3, func() { fired = append(fired, 3) })
	s.At(1, func() { fired = append(fired, 1) })
	s.At(2, func() { fired = append(fired, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var fired []string
	s.At(5, func() { fired = append(fired, "a") })
	s.At(5, func() { fired = append(fired, "b") })
	s.At(5, func() { fired = append(fired, "c") })
	s.RunAll()
	if got := fired[0] + fired[1] + fired[2]; got != "abc" {
		t.Fatalf("tie-break order = %q, want abc", got)
	}
}

func TestSchedulerAfter(t *testing.T) {
	s := NewScheduler()
	var at float64 = -1
	s.After(2, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 5 {
		t.Fatalf("nested After fired at %v, want 5", at)
	}
}

func TestSchedulerRunHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		s.At(tm, func() { fired = append(fired, tm) })
	}
	n := s.Run(3)
	if n != 3 {
		t.Fatalf("Run(3) executed %d events, want 3", n)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want 3 (clock advances to horizon)", s.Now())
	}
	if s.Len() != 2 {
		t.Fatalf("pending = %d, want 2", s.Len())
	}
	// Event exactly at the horizon must run.
	s2 := NewScheduler()
	ran := false
	s2.At(7, func() { ran = true })
	s2.Run(7)
	if !ran {
		t.Fatal("event at horizon did not run")
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	h := s.At(1, func() { ran = true })
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(h) {
		t.Fatal("double Cancel returned true")
	}
	s.RunAll()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	h := s.At(1, func() {})
	s.RunAll()
	if s.Cancel(h) {
		t.Fatal("Cancel after firing returned true")
	}
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var fired []int
	var handles []Handle
	for i := 0; i < 10; i++ {
		i := i
		handles = append(handles, s.At(float64(i), func() { fired = append(fired, i) }))
	}
	s.Cancel(handles[4])
	s.Cancel(handles[7])
	s.RunAll()
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8", len(fired))
	}
	for _, v := range fired {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if !sort.IntsAreSorted(fired) {
		t.Fatalf("events out of order after mid-heap cancel: %v", fired)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.At(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
	if s.Len() != 7 {
		t.Fatalf("pending after Stop = %d, want 7", s.Len())
	}
}

func TestSchedulerPanicsOnPast(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {})
	s.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestSchedulerPanicsOnNegativeDelay(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestSchedulerPanicsOnNilCallback(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	s.At(1, nil)
}

func TestSelfReschedulingProcess(t *testing.T) {
	s := NewScheduler()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		s.After(1, tick)
	}
	s.After(1, tick)
	s.Run(100)
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
}

// Property: for any set of scheduling times, execution order is the sorted
// order (stable for equal times).
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		s := NewScheduler()
		var fired []float64
		for _, raw := range times {
			tm := float64(raw)
			s.At(tm, func() { fired = append(fired, tm) })
		}
		s.RunAll()
		if len(fired) != len(times) {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaving cancels with schedules never corrupts heap order.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var handles []Handle
		var fired []float64
		for i := 0; i < 200; i++ {
			tm := rng.Float64() * 1000
			handles = append(handles, s.At(tm, func() { fired = append(fired, tm) }))
		}
		for i := 0; i < 50; i++ {
			s.Cancel(handles[rng.Intn(len(handles))])
		}
		s.RunAll()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Stream("mobility")
	b := NewRNG(42).Stream("mobility")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed+name produced different streams")
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	r := NewRNG(42)
	a := r.Stream("mobility")
	b := r.Stream("workload")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for different names nearly identical (%d/100 equal draws)", same)
	}
}

func TestRNGOrderIndependence(t *testing.T) {
	r1 := NewRNG(7)
	s1a := r1.Stream("a").Float64()
	s1b := r1.Stream("b").Float64()
	r2 := NewRNG(7)
	s2b := r2.Stream("b").Float64()
	s2a := r2.Stream("a").Float64()
	if s1a != s2a || s1b != s2b {
		t.Fatal("stream contents depend on acquisition order")
	}
}

func TestRNGZeroMixGuard(t *testing.T) {
	// Find the degenerate case where seed ^ hash == 0 cannot be triggered
	// easily; instead verify seed 0 still yields a usable stream.
	s := NewRNG(0).Stream("")
	v := s.Float64()
	if v < 0 || v >= 1 {
		t.Fatalf("stream draw out of range: %v", v)
	}
}

func TestExecutedCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(float64(i), func() {})
	}
	s.RunAll()
	if s.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed())
	}
}

// forBothRecyclingModes runs fn on a scheduler with the event freelist
// on, and again after DisableRecycling.
func forBothRecyclingModes(t *testing.T, fn func(t *testing.T, s *Scheduler, recycling bool)) {
	for _, recycling := range []bool{true, false} {
		name := "recycling"
		if !recycling {
			name = "no-recycling"
		}
		t.Run(name, func(t *testing.T) {
			s := NewScheduler()
			if !recycling {
				s.DisableRecycling()
			}
			fn(t, s, recycling)
		})
	}
}

// A handle to a fired event whose box has been recycled and handed to a
// new event must not cancel the new tenant.
func TestStaleHandleAfterFireAndRetenant(t *testing.T) {
	forBothRecyclingModes(t, func(t *testing.T, s *Scheduler, recycling bool) {
		stale := s.At(1, func() {})
		s.RunAll()
		ran := false
		live := s.At(2, func() { ran = true })
		if recycling && live.box != stale.box {
			t.Fatal("the fired box was not re-tenanted; the test is vacuous")
		}
		if !recycling && live.box == stale.box {
			t.Fatal("a box was reused with recycling disabled")
		}
		if s.Cancel(stale) {
			t.Fatal("Cancel of a fired event's handle returned true")
		}
		if s.Len() != 1 {
			t.Fatalf("pending = %d after stale Cancel, want the new tenant still queued", s.Len())
		}
		s.RunAll()
		if !ran {
			t.Fatal("the new tenant did not fire after a stale Cancel")
		}
		if s.cancelled != 0 {
			t.Fatalf("cancelled = %d, want 0", s.cancelled)
		}
	})
}

// The same holds for a box freed by Cancel rather than by firing.
func TestStaleHandleAfterCancelAndRetenant(t *testing.T) {
	forBothRecyclingModes(t, func(t *testing.T, s *Scheduler, recycling bool) {
		stale := s.At(1, func() {})
		if !s.Cancel(stale) {
			t.Fatal("Cancel of a pending event returned false")
		}
		ran := false
		live := s.At(1, func() { ran = true })
		if recycling && live.box != stale.box {
			t.Fatal("the cancelled box was not re-tenanted; the test is vacuous")
		}
		if s.Cancel(stale) {
			t.Fatal("second Cancel of the same handle returned true")
		}
		if s.Len() != 1 {
			t.Fatalf("pending = %d, want the new tenant still queued", s.Len())
		}
		s.RunAll()
		if !ran {
			t.Fatal("the new tenant did not fire")
		}
		if s.cancelled != 1 {
			t.Fatalf("cancelled = %d, want exactly 1", s.cancelled)
		}
	})
}

func TestZeroHandleAndDoubleCancel(t *testing.T) {
	forBothRecyclingModes(t, func(t *testing.T, s *Scheduler, recycling bool) {
		s.At(1, func() {})
		if s.Cancel(Handle{}) {
			t.Fatal("Cancel of the zero Handle returned true")
		}
		h := s.AtProc(Proc{Kind: "tick"}, 2, func() {})
		if !s.Cancel(h) {
			t.Fatal("Cancel of a pending event returned false")
		}
		if s.Cancel(h) {
			t.Fatal("second Cancel returned true")
		}
		if s.cancelled != 1 {
			t.Fatalf("cancelled = %d, want exactly 1", s.cancelled)
		}
		if s.Len() != 1 || s.tagged != 0 {
			t.Fatalf("pending = %d, tagged = %d; want 1 untagged event left", s.Len(), s.tagged)
		}
		if err := s.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}
