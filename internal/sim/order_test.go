package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// orderModel drives a Scheduler with a decoded op sequence and checks it
// against an oracle that derives every canonical key on its own: it
// mirrors the execution context and the per-creator cseq counters, keeps
// every scheduled event in a flat list, and expects each Step to fire
// the live entry that sorts first by (time, creator, cseq).
type orderModel struct {
	t   *testing.T
	s   *Scheduler
	now float64
	cur int32
	ctr map[int32]uint64
	seq uint64
	evs []*modelEvent
	log []int // ids in firing order
}

type modelEvent struct {
	id      int
	h       Handle
	time    float64
	creator int32
	cseq    uint64
	seq     uint64
	execAs  int32
	proc    Proc
	fan     int // same-time children the callback schedules
	live    bool
}

func (e *modelEvent) before(o *modelEvent) bool {
	return EventKey{e.time, e.creator, e.cseq}.Less(EventKey{o.time, o.creator, o.cseq})
}

// The schedule kinds an op can pick.
const (
	kindAt = iota
	kindCtx
	kindProc
)

func newOrderModel(t *testing.T, split, recycle bool) *orderModel {
	s := NewScheduler()
	if split {
		s.SplitGlobal()
	}
	if !recycle {
		s.DisableRecycling()
	}
	return &orderModel{t: t, s: s, cur: -1, ctr: map[int32]uint64{}}
}

// fireCtx is the static AtCtxAs callback; ctx is the model entry.
func fireCtx(ctx any) {
	e := ctx.(*modelEventCtx)
	e.m.onFire(e.e)
}

type modelEventCtx struct {
	m *orderModel
	e *modelEvent
}

// schedule issues one event through the API the kind selects, under the
// model's current execution context, and records the oracle's key.
func (m *orderModel) schedule(kind int, t float64, execAs int32, fan int) {
	e := &modelEvent{
		id: len(m.evs), time: t, creator: m.cur, cseq: m.ctr[m.cur],
		seq: m.seq, execAs: execAs, fan: fan, live: true,
	}
	m.ctr[m.cur]++
	m.seq++
	fire := func() { m.onFire(e) }
	switch kind {
	case kindAt: // callers pass execAs == m.cur: At inherits the context
		e.h = m.s.At(t, fire)
	case kindCtx:
		e.h = m.s.AtCtxAs(t, fireCtx, &modelEventCtx{m: m, e: e}, int(execAs))
	case kindProc:
		e.proc = Proc{Kind: "p", Owner: e.id}
		e.h = m.s.AtProcAs(e.proc, t, fire, int(execAs))
	}
	m.evs = append(m.evs, e)
}

// onFire runs inside a callback: it logs the event and, like a
// broadcast, fans out same-time children under the event's context.
func (m *orderModel) onFire(e *modelEvent) {
	m.log = append(m.log, e.id)
	if got := m.s.Cur(); got != int(e.execAs) {
		m.t.Fatalf("event %d runs under context %d, want %d", e.id, got, e.execAs)
	}
	m.cur = e.execAs
	for i := 0; i < e.fan; i++ {
		m.schedule(kindAt, m.s.Now(), e.execAs, 0)
	}
}

// next returns the live entry the oracle expects to fire next, or nil.
func (m *orderModel) next() *modelEvent {
	var best *modelEvent
	for _, e := range m.evs {
		if e.live && (best == nil || e.before(best)) {
			best = e
		}
	}
	return best
}

func (m *orderModel) step(until float64) {
	want := m.next()
	if want != nil && want.time > until {
		want = nil
	}
	if want != nil {
		want.live = false
	}
	n := len(m.log)
	fired := m.s.Step(until)
	if fired {
		m.cur = -1 // the scheduler leaves callbacks in the neutral context
	}
	switch {
	case want == nil && fired:
		m.t.Fatalf("Step(%v) fired event %d, oracle expected none", until, m.log[n])
	case want != nil && !fired:
		m.t.Fatalf("Step(%v) fired nothing, oracle expected event %d", until, want.id)
	case want != nil && m.log[n] != want.id:
		m.t.Fatalf("Step fired event %d, oracle expected event %d", m.log[n], want.id)
	}
	if want != nil {
		m.now = want.time
	}
}

func (m *orderModel) cancel(e *modelEvent) {
	if got := m.s.Cancel(e.h); got != e.live {
		m.t.Fatalf("Cancel(event %d) = %v, want %v", e.id, got, e.live)
	}
	e.live = false
}

// check compares the scheduler's observable state with the oracle's.
func (m *orderModel) check() {
	if err := m.s.CheckConsistency(); err != nil {
		m.t.Fatal(err)
	}
	if m.s.Now() != m.now {
		m.t.Fatalf("clock %v, oracle %v", m.s.Now(), m.now)
	}
	var live int
	var procs []ProcEvent
	for _, e := range m.evs { // evs is in seq order
		if !e.live {
			continue
		}
		live++
		if e.proc.Kind != "" {
			procs = append(procs, ProcEvent{Proc: e.proc, Time: e.time, Seq: e.seq, Creator: int(e.creator)})
		}
	}
	if m.s.Len() != live {
		m.t.Fatalf("Len = %d, oracle has %d live events", m.s.Len(), live)
	}
	if m.s.Quiescent() != (live == len(procs)) {
		m.t.Fatalf("Quiescent = %v with %d live, %d tagged", m.s.Quiescent(), live, len(procs))
	}
	got := m.s.PendingProcs()
	if len(got) != len(procs) {
		m.t.Fatalf("PendingProcs has %d entries, oracle %d", len(got), len(procs))
	}
	for i := range got {
		if got[i] != procs[i] {
			m.t.Fatalf("PendingProcs[%d] = %+v, oracle %+v", i, got[i], procs[i])
		}
	}
}

// run decodes data two bytes per op and checks the scheduler after
// every op, then drains the queue in oracle order. Delays come from a
// tiny set so equal-time ties dominate, and execution contexts from
// {-1, 0, 1, 2} so SplitGlobal's two queues both fill.
func (m *orderModel) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		delay := float64(arg%4) * 0.5
		ctx := int32(arg>>2%4) - 1
		switch op % 8 {
		case 0, 1:
			m.schedule(kindAt, m.now+delay, m.cur, int(arg>>4%4))
		case 2:
			m.schedule(kindCtx, m.now+delay, ctx, 0)
		case 3:
			m.schedule(kindProc, m.now+delay, ctx, 0)
		case 4:
			if len(m.evs) == 0 || arg == 0xff {
				if m.s.Cancel(Handle{}) {
					m.t.Fatal("Cancel(Handle{}) returned true")
				}
				break
			}
			m.cancel(m.evs[int(arg)%len(m.evs)])
		case 5, 6:
			m.step(m.now + float64(arg%3)*0.5)
		case 7:
			m.cur = ctx
			m.s.SetCur(int(ctx))
		}
		m.check()
	}
	m.cur = -1
	m.s.SetCur(-1)
	for m.next() != nil {
		m.step(math.Inf(1))
		m.check()
	}
	if m.s.Step(math.Inf(1)) {
		m.t.Fatal("Step fired an event after the oracle drained")
	}
}

// orderModes are the scheduler configurations the ordering checks run
// under: one or two queues, with and without the event freelist.
var orderModes = []struct {
	name           string
	split, recycle bool
}{
	{"single", false, true},
	{"single/no-recycling", false, false},
	{"split", true, true},
	{"split/no-recycling", true, false},
}

// TestSchedulerOracleOrder: random interleavings of At, AtCtxAs,
// AtProcAs, Cancel, Step and context switches pop in exactly the
// oracle's canonical order, and PendingProcs always matches the
// oracle's tagged subset in Seq order.
func TestSchedulerOracleOrder(t *testing.T) {
	for _, mode := range orderModes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				data := make([]byte, 600)
				rand.New(rand.NewSource(seed)).Read(data)
				newOrderModel(t, mode.split, mode.recycle).run(data)
			}
		})
	}
}

// FuzzSchedulerOrder runs the oracle model over fuzzed op sequences.
// The first byte picks the mode (bit 0: SplitGlobal, bit 1: recycling
// off); the rest decodes as in orderModel.run.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0x31, 0, 0x31, 2, 5, 3, 9, 5, 0, 5, 0, 5, 0})
	f.Add([]byte{1, 2, 0x00, 2, 0x04, 3, 0x08, 3, 0x0c, 4, 1, 6, 2, 6, 2})
	f.Add([]byte{3, 7, 0x0c, 0, 0x30, 0, 0x30, 5, 0, 4, 0, 4, 0xff, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		newOrderModel(t, data[0]&1 != 0, data[0]&2 == 0).run(data[1:])
	})
}

// TestCheckConsistencyCatchesCorruption breaks each bookkeeping rule
// CheckConsistency guards and checks the matching error comes back, so
// the scheduler invariant keeps its teeth.
func TestCheckConsistencyCatchesCorruption(t *testing.T) {
	// build leaves 30 events queued (every third tagged) and 5 boxes on
	// the freelist.
	build := func(split bool) *Scheduler {
		s := NewScheduler()
		if split {
			s.SplitGlobal()
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 35; i++ {
			at := float64(rng.Intn(10))
			if i%3 == 0 {
				s.AtProcAs(Proc{Kind: "p", Owner: i}, at, func() {}, i%2-1)
			} else {
				s.AtCtxAs(at, func(any) {}, nil, i%2-1)
			}
		}
		for i := 0; i < 5; i++ {
			s.Step(math.Inf(1))
		}
		if err := s.CheckConsistency(); err != nil {
			panic(err)
		}
		return s
	}
	cases := []struct {
		name    string
		split   bool
		corrupt func(s *Scheduler)
		want    string
	}{
		{"index", false, func(s *Scheduler) { s.queue[7].index = 9 }, "carries heap index"},
		{"parent rule", false, func(s *Scheduler) {
			// Swap the root with its last leaf, keeping indices
			// self-consistent, so only the ordering is wrong.
			q := s.queue
			n := len(q) - 1
			q[0], q[n] = q[n], q[0]
			q[0].index, q[n].index = 0, n
		}, "heap property violated"},
		{"tagged count", false, func(s *Scheduler) { s.tagged++ }, "tagged count"},
		{"free box queued", false, func(s *Scheduler) { s.free[2].index = 0 }, "still queued"},
		{"free box callback", false, func(s *Scheduler) { s.free[0].fn = func() {} }, "retains"},
		{"free box tag", false, func(s *Scheduler) { s.free[1].proc = Proc{Kind: "p"} }, "retains"},
		{"past event", false, func(s *Scheduler) { s.now = 100 }, "before now"},
		{"wrong queue", true, func(s *Scheduler) { s.queue[0].execAs = -1 }, "wrong queue"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := build(c.split)
			c.corrupt(s)
			err := s.CheckConsistency()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckConsistency = %v, want an error containing %q", err, c.want)
			}
		})
	}
}
