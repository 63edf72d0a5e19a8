// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel's reference mode is single-threaded: given the same seed and
// the same sequence of scheduled callbacks, a run is bit-for-bit
// reproducible. Parallelism lives one level up, in two forms: independent
// scenario replications run on a worker pool (see the root precinct
// package), and a single large run can be sharded across cores by giving
// each shard its own Scheduler and synchronizing them at a conservative
// lookahead horizon (see the root package's parallel runner).
//
// Sharded execution preserves the reference mode's results exactly
// because every event carries a canonical key (time, creator, cseq) that
// is assigned identically in both modes: `creator` is the execution
// context (peer id, or -1 for network-global work) of the event that
// scheduled it, and `cseq` is drawn from a per-creator counter. A
// creator's events fire on a single shard (or on the coordinator, for
// creator -1), so the counter draw order — and therefore every key — is
// independent of how the event loop is partitioned.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Handle identifies a scheduled event so it can be cancelled before it
// fires: the event's box plus the generation the box had when the event
// was scheduled. A box's generation is bumped every time it is popped or
// cancelled, so a handle outlives its event harmlessly — once the event
// has fired or been cancelled, and even after the box is re-tenanted by
// a later event, the generations differ and Cancel returns false. The
// zero Handle is invalid.
type Handle struct {
	box *event
	gen uint64
}

// Proc names a re-armable recurring process. Events carry closures,
// which cannot be serialized — so checkpointing is only possible at a
// quiescent boundary where every pending event is tagged with a Proc the
// restore path knows how to rebuild (a peer's request loop, a fault, the
// churn tick, ...). Kind selects the re-arm recipe; Owner is the peer or
// fault index it applies to (-1 for network-wide processes).
type Proc struct {
	Kind  string
	Owner int
}

// ProcEvent is one pending tagged event: what to re-arm, when it was due
// to fire, its insertion sequence number, and the execution context that
// scheduled it. Restore re-registers ProcEvents in ascending Seq order
// with the scheduler's context set to Creator, so same-time events keep
// their canonical tie-break order across a checkpoint boundary.
type ProcEvent struct {
	Proc    Proc
	Time    float64
	Seq     uint64
	Creator int
}

// SchedulerState is the serializable scheduler state at a quiescent
// boundary: the clock and counters, plus every pending tagged event.
// The per-creator cseq counters are NOT serialized: re-arming in
// ascending Seq order with the saved Creator reproduces every relative
// cseq order that the canonical comparator can observe.
type SchedulerState struct {
	Now       float64
	Seq       uint64
	NextID    uint64 // always Seq+1; kept so the checkpoint format is unchanged
	Executed  uint64
	Cancelled uint64
	Procs     []ProcEvent
}

// event is a pending callback on the event queue. Exactly one of fn and
// fnCtx is set: fn is the closure form, fnCtx+ctx the allocation-free
// form used by hot paths (see AtCtx). Popped and cancelled events are
// recycled through the scheduler's freelist. index is the box's heap
// position while queued and -1 otherwise; gen counts the box's
// incarnations. Together they are the whole cancellation guard: a Handle
// is live exactly when its gen matches and the box is queued.
type event struct {
	time    float64
	creator int32  // execution context that scheduled this event
	execAs  int32  // execution context the callback runs under
	cseq    uint64 // per-creator sequence; (time, creator, cseq) is total
	seq     uint64 // insertion order (for snapshots; not an ordering key)
	gen     uint64 // incremented every time the box is recycled
	index   int    // heap index; -1 once popped or cancelled
	proc    Proc   // re-arm tag (AtProc); Kind "" means untagged
	fn      func()
	fnCtx   func(any)
	ctx     any
}

// EventKey is the canonical total order over events: (Time, Creator,
// Cseq). It is identical in sequential and sharded runs, which is what
// lets a sharded run's merged trace reproduce the sequential one.
type EventKey struct {
	Time    float64
	Creator int32
	Cseq    uint64
}

// Less orders keys canonically.
func (k EventKey) Less(o EventKey) bool {
	if k.Time != o.Time {
		return k.Time < o.Time
	}
	if k.Creator != o.Creator {
		return k.Creator < o.Creator
	}
	return k.Cseq < o.Cseq
}

func (ev *event) key() EventKey {
	return EventKey{Time: ev.time, Creator: ev.creator, Cseq: ev.cseq}
}

// less orders events by the canonical key. Keys are unique, so the
// order is total and the pop sequence does not depend on heap shape.
func (ev *event) less(o *event) bool { return ev.key().Less(o.key()) }

func (ev *event) tagged() bool { return ev.proc.Kind != "" }

// eventQueue is a 4-ary min-heap ordered by the canonical key. Every
// box records its own position in index so Cancel can remove it in
// O(log n). A 4-ary heap is half as deep as a binary one, and the four
// children it compares per level sit next to each other in the slice.
type eventQueue []*event

// heapArity is the fan-out: the children of i are arity*i+1 ..
// arity*i+arity, and the parent of i is (i-1)/arity.
const heapArity = 4

// push inserts ev.
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(ev, len(*q)-1)
}

// up places ev, starting at the vacant slot i, moving it towards the
// root past every parent it sorts before.
func (q eventQueue) up(ev *event, i int) {
	for i > 0 {
		p := (i - 1) / heapArity
		pe := q[p]
		if !ev.less(pe) {
			break
		}
		q[i] = pe
		pe.index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev, starting at the vacant slot i, moving it towards the
// leaves past every least child that sorts before it.
func (q eventQueue) down(ev *event, i int) {
	n := len(q)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best, be := c, q[c]
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].less(be) {
				best, be = j, q[j]
			}
		}
		if !be.less(ev) {
			break
		}
		q[i] = be
		be.index = i
		i = best
	}
	q[i] = ev
	ev.index = i
}

// removeAt takes the event at slot i out of the heap and marks it
// unqueued.
func (q *eventQueue) removeAt(i int) {
	old := *q
	n := len(old) - 1
	ev, last := old[i], old[n]
	old[n] = nil
	*q = old[:n]
	ev.index = -1
	if i == n {
		return
	}
	if i > 0 && last.less(old[(i-1)/heapArity]) {
		old[:n].up(last, i)
	} else {
		old[:n].down(last, i)
	}
}

// Counters hands out per-creator sequence numbers. Index creator+1
// (creator -1, the network-global context, uses slot 0). In sharded
// runs one Counters instance is shared by every shard scheduler; this is
// safe without locks because creator c's counter is only drawn while
// c's events execute, which happens on exactly one goroutine at a time
// (c's owning shard during a window, or the coordinator at a barrier).
type Counters struct {
	c []uint64
}

// NewCounters returns counters pre-sized for creators -1..n-1. Sharded
// runs must pre-size (growth would race); sequential runs may pass 0
// and let the slice grow on demand.
func NewCounters(n int) *Counters {
	return &Counters{c: make([]uint64, n+1)}
}

func (k *Counters) next(creator int32) uint64 {
	idx := int(creator) + 1
	if idx >= len(k.c) {
		grown := make([]uint64, idx+1)
		copy(grown, k.c)
		k.c = grown
	}
	v := k.c[idx]
	k.c[idx]++
	return v
}

// Scheduler owns the simulation clock and the pending event queue.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	queue     eventQueue
	gqueue    eventQueue // global (execAs -1) events, when splitGlobal
	tagged    int        // queued events carrying a Proc tag
	now       float64
	seq       uint64
	executed  uint64
	cancelled uint64
	stopped   bool

	// cur is the execution context of the in-flight event: the peer id
	// whose callback is running, or -1 outside callbacks and for
	// network-global work. New events record it as their creator and
	// inherit it as their default execAs.
	cur      int32
	counters *Counters

	// splitGlobal routes execAs -1 events to a separate queue that the
	// shard worker's RunBefore never touches; the parallel coordinator
	// executes them single-threaded at barriers. Sequential schedulers
	// leave it off and pay nothing for the second queue.
	splitGlobal bool

	// free is the event-box freelist: popped and cancelled events are
	// returned here and Schedule takes them back out, so the steady-state
	// Schedule→fire→recycle cycle allocates nothing. noRecycle disables
	// the freelist (every event is a fresh allocation) for the NoPooling
	// reference path that equivalence proofs compare against.
	free      []*event
	noRecycle bool

	// execCounts, when non-nil, tallies fired events per execution
	// context at index execAs+1 (index 0 is network-global work). The
	// shard-load probe turns it on for a short sequential prefix run to
	// measure how much event work each peer actually generates; it is
	// nil — and the fire path pays one predictable branch — everywhere
	// else.
	execCounts []uint64

	// afterEvent, when non-nil, runs after every executed event with the
	// clock at that event's time. Observers (the invariant runner) hang
	// off this; the hook must not schedule or cancel events.
	afterEvent func(now float64)
	// extraAfter are additional after-event observers (the checkpoint
	// boundary detector) that coexist with the primary one.
	extraAfter []func(now float64)
}

// NewScheduler returns an empty scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return NewSchedulerWithCounters(NewCounters(0))
}

// NewSchedulerWithCounters returns an empty scheduler drawing cseq
// numbers from the given (possibly shared) counter set.
func NewSchedulerWithCounters(k *Counters) *Scheduler {
	return &Scheduler{
		cur:      -1,
		counters: k,
	}
}

// Counters exposes the scheduler's counter set so shard schedulers can
// share the primary's.
func (s *Scheduler) Counters() *Counters { return s.counters }

// SplitGlobal enables the two-queue mode for shard schedulers: events
// with execAs -1 go to a separate queue for the coordinator. Must be
// called before any event is scheduled.
func (s *Scheduler) SplitGlobal() {
	if len(s.queue) > 0 || len(s.gqueue) > 0 {
		panic("sim: SplitGlobal after events were scheduled")
	}
	s.splitGlobal = true
}

// Now returns the current simulation time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) + len(s.gqueue) }

// Executed returns the number of events that have fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Cur returns the current execution context (-1 outside callbacks).
func (s *Scheduler) Cur() int { return int(s.cur) }

// SetCur overrides the execution context for subsequent scheduling
// calls. Checkpoint restore uses it to re-arm saved events under their
// original creator so canonical tie-breaks survive the boundary. Pass
// -1 to return to the neutral context.
func (s *Scheduler) SetCur(c int) { s.cur = int32(c) }

// CountExec enables per-context fired-event tallies for n peer
// contexts (plus the -1 global context at index 0). Counting starts
// from the call; events fired earlier are not represented.
func (s *Scheduler) CountExec(n int) { s.execCounts = make([]uint64, n+1) }

// ExecCounts returns the per-context tallies enabled by CountExec
// (index execAs+1), or nil when counting is off.
func (s *Scheduler) ExecCounts() []uint64 { return s.execCounts }

// SetAfterEvent installs an observer called after each executed event.
// Pass nil to remove it. The observer must not mutate the queue.
func (s *Scheduler) SetAfterEvent(fn func(now float64)) { s.afterEvent = fn }

// AddAfterEvent appends an additional after-event observer, leaving the
// primary SetAfterEvent slot untouched so multiple subsystems (invariant
// runner, checkpoint boundary detection) can observe the same run. The
// same no-mutation contract applies.
func (s *Scheduler) AddAfterEvent(fn func(now float64)) {
	if fn != nil {
		s.extraAfter = append(s.extraAfter, fn)
	}
}

// notifyAfterEvent runs every observer with the clock at the event time.
func (s *Scheduler) notifyAfterEvent() {
	if s.afterEvent != nil {
		s.afterEvent(s.now)
	}
	for _, fn := range s.extraAfter {
		fn(s.now)
	}
}

// CheckConsistency verifies the scheduler's internal bookkeeping: every
// queued box must carry its own heap index and sit in the queue its
// execAs selects, the 4-ary heap property must hold against each
// parent (i-1)/4, no queued event may be due before the current clock,
// the tagged count must equal the number of tagged queued boxes, and no
// freelist box may be queued or keep a callback or tag. It is O(n) over
// the queue and intended for invariant sweeps, not hot paths.
func (s *Scheduler) CheckConsistency() error {
	tagged := 0
	for _, home := range []*eventQueue{&s.queue, &s.gqueue} {
		q := *home
		for i, ev := range q {
			if ev.index != i {
				return fmt.Errorf("sim: event (seq %d) carries heap index %d at position %d", ev.seq, ev.index, i)
			}
			if s.queueOf(ev.execAs) != home {
				return fmt.Errorf("sim: event (seq %d, execAs %d) is in the wrong queue", ev.seq, ev.execAs)
			}
			if ev.time < s.now {
				return fmt.Errorf("sim: pending event (seq %d) at t=%v is before now=%v", ev.seq, ev.time, s.now)
			}
			if i > 0 {
				if parent := (i - 1) / heapArity; ev.less(q[parent]) {
					return fmt.Errorf("sim: heap property violated at index %d (parent %d)", i, parent)
				}
			}
			if ev.tagged() {
				tagged++
			}
		}
	}
	if tagged != s.tagged {
		return fmt.Errorf("sim: tagged count is %d but %d queued events are tagged", s.tagged, tagged)
	}
	for i, ev := range s.free {
		if ev.index >= 0 {
			return fmt.Errorf("sim: freelist slot %d is still queued at heap index %d", i, ev.index)
		}
		if ev.fn != nil || ev.fnCtx != nil || ev.ctx != nil || ev.tagged() {
			return fmt.Errorf("sim: freelist slot %d retains a callback reference or tag", i)
		}
	}
	return nil
}

// DisableRecycling turns off the event freelist so every scheduled
// event is a fresh allocation. The NoPooling reference path uses this to
// prove the freelist changes nothing observable.
func (s *Scheduler) DisableRecycling() {
	s.noRecycle = true
	s.free = nil
}

// takeEvent pops an event box off the freelist or allocates one.
func (s *Scheduler) takeEvent() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// recycleEvent returns a popped or cancelled event box to the freelist.
// Callback references and the tag are cleared so the freelist never
// pins payloads, and gen is bumped so every Handle to the box's previous
// incarnation is dead for good.
func (s *Scheduler) recycleEvent(ev *event) {
	ev.fn = nil
	ev.fnCtx = nil
	ev.ctx = nil
	ev.proc = Proc{}
	ev.gen++
	if !s.noRecycle {
		s.free = append(s.free, ev)
	}
}

// queueOf returns the heap an event with the given execAs lives in.
func (s *Scheduler) queueOf(execAs int32) *eventQueue {
	if s.splitGlobal && execAs < 0 {
		return &s.gqueue
	}
	return &s.queue
}

// schedule inserts a filled-in event box at absolute time t, drawing a
// fresh canonical key under the current execution context.
func (s *Scheduler) schedule(t float64, ev *event, execAs int32) Handle {
	ev.creator = s.cur
	ev.cseq = s.counters.next(s.cur)
	return s.scheduleKeyed(t, ev, execAs)
}

// scheduleKeyed inserts an event whose creator/cseq are already set
// (either freshly drawn or reserved on another shard).
func (s *Scheduler) scheduleKeyed(t float64, ev *event, execAs int32) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	ev.time = t
	ev.execAs = execAs
	ev.seq = s.seq
	s.seq++
	s.queueOf(execAs).push(ev)
	return Handle{box: ev, gen: ev.gen}
}

// At schedules fn to run at absolute simulation time t, executing under
// the scheduling context (the event is "more work for whoever is running
// now"). Scheduling in the past panics: it would silently reorder
// causality and every such call is a protocol bug.
func (s *Scheduler) At(t float64, fn func()) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := s.takeEvent()
	ev.fn = fn
	return s.schedule(t, ev, s.cur)
}

// AtCtx schedules fn(ctx) at absolute time t. Unlike At, the callback is
// a plain function pointer plus an explicit context value, so hot paths
// that would otherwise allocate a capturing closure per event (one per
// radio frame delivery) can pass a pooled context struct instead and
// keep the whole Schedule→fire→recycle cycle allocation-free.
func (s *Scheduler) AtCtx(t float64, fn func(any), ctx any) Handle {
	return s.AtCtxAs(t, fn, ctx, int(s.cur))
}

// AtCtxAs is AtCtx with an explicit execution context for the callback:
// the peer whose state it will touch (a frame's receiver), or -1 for
// network-global work. Sharded runs use execAs to route the event to
// its owner's shard.
func (s *Scheduler) AtCtxAs(t float64, fn func(any), ctx any, execAs int) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := s.takeEvent()
	ev.fnCtx = fn
	ev.ctx = ctx
	return s.schedule(t, ev, int32(execAs))
}

// After schedules fn to run d seconds from now.
func (s *Scheduler) After(d float64, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// AfterCtx schedules fn(ctx) d seconds from now (see AtCtx).
func (s *Scheduler) AfterCtx(d float64, fn func(any), ctx any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtCtx(s.now+d, fn, ctx)
}

// AfterCtxAs schedules fn(ctx) d seconds from now under an explicit
// execution context (see AtCtxAs).
func (s *Scheduler) AfterCtxAs(d float64, fn func(any), ctx any, execAs int) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.AtCtxAs(s.now+d, fn, ctx, execAs)
}

// AtProc schedules fn at absolute time t, tagged as a re-armable
// process, executing under the scheduling context. Tagged events are
// what make a boundary quiescent: they can be rebuilt from (Proc, Time)
// alone, so a checkpoint taken while only tagged events are pending can
// be restored exactly.
func (s *Scheduler) AtProc(p Proc, t float64, fn func()) Handle {
	return s.AtProcAs(p, t, fn, int(s.cur))
}

// AtProcAs is AtProc with an explicit execution context: the peer that
// owns the recurring process, or -1 for network-global processes
// (churn, faults, updates, the warmup meter reset) that a sharded run
// executes single-threaded at barriers.
func (s *Scheduler) AtProcAs(p Proc, t float64, fn func(), execAs int) Handle {
	if p.Kind == "" {
		panic("sim: AtProc with empty proc kind")
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := s.takeEvent()
	ev.fn = fn
	ev.proc = p
	h := s.schedule(t, ev, int32(execAs))
	s.tagged++
	return h
}

// ReserveKey draws a canonical key under the current context without
// scheduling anything. A shard uses it for a cross-shard delivery: the
// key is drawn on the sender's shard — exactly when the sequential run
// would draw it — then travels with the frame and is attached on the
// receiver's shard via InjectAtCtx.
func (s *Scheduler) ReserveKey() (creator int32, cseq uint64) {
	return s.cur, s.counters.next(s.cur)
}

// InjectAtCtx schedules fn(ctx) at absolute time t with an explicit,
// previously reserved canonical key. The barrier protocol guarantees t
// is not in this scheduler's past; scheduling in the past still panics,
// as the causality backstop.
func (s *Scheduler) InjectAtCtx(t float64, fn func(any), ctx any, execAs int, creator int32, cseq uint64) Handle {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := s.takeEvent()
	ev.fnCtx = fn
	ev.ctx = ctx
	ev.creator = creator
	ev.cseq = cseq
	return s.scheduleKeyed(t, ev, int32(execAs))
}

// Quiescent reports whether every pending event is a tagged re-armable
// process — i.e. no transient work (frame deliveries, request timeouts,
// retries) is in flight and the run can be checkpointed.
func (s *Scheduler) Quiescent() bool { return s.Len() == s.tagged }

// PendingProcs returns the pending tagged events in ascending Seq order.
func (s *Scheduler) PendingProcs() []ProcEvent {
	out := make([]ProcEvent, 0, s.tagged)
	for _, q := range []eventQueue{s.queue, s.gqueue} {
		for _, ev := range q {
			if ev.tagged() {
				out = append(out, ProcEvent{Proc: ev.proc, Time: ev.time, Seq: ev.seq, Creator: int(ev.creator)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// StateSnapshot captures the scheduler at a quiescent boundary. It fails
// when any pending event is untagged — such an event's closure cannot be
// rebuilt, so a snapshot taken now could not be restored faithfully.
func (s *Scheduler) StateSnapshot() (SchedulerState, error) {
	if !s.Quiescent() {
		return SchedulerState{}, fmt.Errorf(
			"sim: not quiescent: %d pending events, only %d re-armable",
			s.Len(), s.tagged)
	}
	return SchedulerState{
		Now:       s.now,
		Seq:       s.seq,
		NextID:    s.seq + 1,
		Executed:  s.executed,
		Cancelled: s.cancelled,
		Procs:     s.PendingProcs(),
	}, nil
}

// RestoreState rewinds the clock and counters to a snapshot. The queue
// must be empty — the caller re-arms the snapshot's Procs afterwards (in
// ascending Seq order, under SetCur(Creator), so same-time events keep
// their relative canonical order). Re-armed events receive fresh
// sequence numbers at or above Seq; within each creator the re-arm
// order matches the original insertion order, so every relative cseq
// comparison the canonical order can make is preserved even though the
// counters restart from zero.
func (s *Scheduler) RestoreState(st SchedulerState) error {
	if s.Len() != 0 {
		return fmt.Errorf("sim: RestoreState on a scheduler with %d pending events", s.Len())
	}
	if st.Now < 0 {
		return fmt.Errorf("sim: negative snapshot clock %v", st.Now)
	}
	s.now = st.Now
	s.seq = st.Seq
	s.executed = st.Executed
	s.cancelled = st.Cancelled
	return nil
}

// Cancel removes a pending event. It returns false for the zero Handle
// and when the event already fired or was cancelled.
func (s *Scheduler) Cancel(h Handle) bool {
	ev := h.box
	if ev == nil || ev.gen != h.gen || ev.index < 0 {
		return false
	}
	s.pop(ev)
	s.cancelled++
	s.recycleEvent(ev)
	return true
}

// fire runs one popped event: the callback fields are copied out and the
// box recycled BEFORE the callback executes, so a callback that schedules
// new events reuses the box it just vacated. The execution context is
// the event's execAs for the duration of the callback.
func (s *Scheduler) fire(next *event) {
	fn, fnCtx, ctx := next.fn, next.fnCtx, next.ctx
	s.cur = next.execAs
	if s.execCounts != nil {
		if i := int(next.execAs) + 1; i >= 0 && i < len(s.execCounts) {
			s.execCounts[i]++
		}
	}
	s.recycleEvent(next)
	if fn != nil {
		fn()
	} else {
		fnCtx(ctx)
	}
	s.cur = -1
}

// peekMin returns the canonically-least pending event across both
// queues, or nil.
func (s *Scheduler) peekMin() *event {
	var best *event
	if len(s.queue) > 0 {
		best = s.queue[0]
	}
	if len(s.gqueue) > 0 {
		if g := s.gqueue[0]; best == nil || g.less(best) {
			best = g
		}
	}
	return best
}

// pop removes a queued event from its queue and the tagged count.
func (s *Scheduler) pop(ev *event) {
	if ev.tagged() {
		s.tagged--
	}
	s.queueOf(ev.execAs).removeAt(ev.index)
}

// Stop makes the current Run call return after the in-flight event
// completes. Pending events stay queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in canonical order until the queue drains or the
// clock would pass `until`. Events scheduled exactly at `until` still run.
// It returns the number of events executed by this call.
func (s *Scheduler) Run(until float64) uint64 {
	s.stopped = false
	var n uint64
	for !s.stopped {
		next := s.peekMin()
		if next == nil || next.time > until {
			break
		}
		s.pop(next)
		s.now = next.time
		s.fire(next)
		s.executed++
		n++
		s.notifyAfterEvent()
	}
	// Advance the clock to the horizon so subsequent scheduling is
	// relative to the end of the observed window.
	if !s.stopped && s.now < until {
		s.now = until
	}
	return n
}

// Step executes exactly one event if the next one is due at or before
// `until`, and reports whether an event fired. The clock is NOT advanced
// to the horizon when the queue is ahead of it — Step exists for
// lockstep comparison of two runs (replay bisection), where the caller
// needs to observe state between individual events.
func (s *Scheduler) Step(until float64) bool {
	next := s.peekMin()
	if next == nil || next.time > until {
		return false
	}
	s.pop(next)
	s.now = next.time
	s.fire(next)
	s.executed++
	s.notifyAfterEvent()
	return true
}

// RunAll executes events until the queue is empty. Callbacks that keep
// rescheduling themselves make this non-terminating; callers that inject
// recurring processes should use Run with a horizon instead.
func (s *Scheduler) RunAll() uint64 {
	s.stopped = false
	var n uint64
	for !s.stopped {
		next := s.peekMin()
		if next == nil {
			break
		}
		s.pop(next)
		s.now = next.time
		s.fire(next)
		s.executed++
		n++
		s.notifyAfterEvent()
	}
	return n
}

// RunBefore executes local-queue events with time strictly below the
// horizon h, in canonical order, and returns the count. It is the shard
// worker's inner loop: global-queue events are left for the coordinator
// (the barrier protocol guarantees none is due before h), and the clock
// is NOT advanced to h — the next window's bounds are recomputed from
// queue heads, so the clock only ever reflects fired events.
func (s *Scheduler) RunBefore(h float64) uint64 {
	var n uint64
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.time >= h {
			break
		}
		s.pop(next)
		s.now = next.time
		s.fire(next)
		s.executed++
		n++
	}
	return n
}

// StepAt fires the canonically-least pending event if it is due exactly
// at time t, reporting whether one fired. The coordinator drains
// same-time barrier batches with it, interleaving shards in canonical
// order.
func (s *Scheduler) StepAt(t float64) bool {
	next := s.peekMin()
	if next == nil || next.time != t {
		return false
	}
	s.pop(next)
	s.now = next.time
	s.fire(next)
	s.executed++
	return true
}

// PeekLocal returns the due time of the earliest local-queue event.
func (s *Scheduler) PeekLocal() (float64, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].time, true
}

// PeekGlobal returns the due time of the earliest global-queue event.
func (s *Scheduler) PeekGlobal() (float64, bool) {
	if len(s.gqueue) == 0 {
		return 0, false
	}
	return s.gqueue[0].time, true
}

// PeekKey returns the canonical key of the earliest pending event
// across both queues.
func (s *Scheduler) PeekKey() (EventKey, bool) {
	next := s.peekMin()
	if next == nil {
		return EventKey{}, false
	}
	return next.key(), true
}

// AdvanceTo moves the clock forward to t without firing anything; the
// parallel runner uses it to land every shard clock on the common end
// time after the window loop drains. Moving backwards panics.
func (s *Scheduler) AdvanceTo(t float64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, s.now))
	}
	s.now = t
}

// RNG derives a deterministic random stream for a named component. Two
// schedulers seeded identically hand out identical streams for the same
// name, regardless of the order in which components ask for them — that is
// what keeps scenario runs reproducible as the codebase grows.
//
// The registry memoizes streams by name so every stream's underlying
// Source is reachable for checkpointing: a snapshot is the sorted (name,
// state) list and a restore writes states back into the live Sources
// without invalidating the *rand.Rand wrappers protocol code holds.
type RNG struct {
	seed    int64
	streams map[string]*streamEntry
}

type streamEntry struct {
	src  *Source
	rand *rand.Rand
}

// StreamState is the serializable state of one named stream.
type StreamState struct {
	Name  string
	State SourceState
}

// NewRNG returns a stream factory rooted at seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, streams: make(map[string]*streamEntry)}
}

// Stream returns the *rand.Rand for the component name, creating it on
// first use. The stream seed mixes the root seed with an FNV-1a hash of
// the name. Repeated calls with the same name return the same stream.
func (r *RNG) Stream(name string) *rand.Rand {
	if e, ok := r.streams[name]; ok {
		return e.rand
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	mixed := r.seed ^ int64(h)
	if mixed == 0 {
		mixed = int64(prime64)
	}
	src := NewSource(mixed)
	e := &streamEntry{src: src, rand: rand.New(src)}
	r.streams[name] = e
	return e.rand
}

// StateSnapshot returns the state of every stream created so far, sorted
// by name so the serialized form is deterministic.
func (r *RNG) StateSnapshot() []StreamState {
	out := make([]StreamState, 0, len(r.streams))
	for name, e := range r.streams {
		out = append(out, StreamState{Name: name, State: e.src.State()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RestoreState writes saved states back into live streams. It is strict
// in both directions — a snapshot naming a stream this RNG never created,
// or a live stream absent from the snapshot, means the restored topology
// does not match the captured one, and restoring would silently
// desynchronize the run.
func (r *RNG) RestoreState(states []StreamState) error {
	if len(states) != len(r.streams) {
		return fmt.Errorf("sim: snapshot has %d rng streams, live run has %d", len(states), len(r.streams))
	}
	seen := make(map[string]bool, len(states))
	for _, st := range states {
		if seen[st.Name] {
			return fmt.Errorf("sim: duplicate rng stream %q in snapshot", st.Name)
		}
		seen[st.Name] = true
		e, ok := r.streams[st.Name]
		if !ok {
			return fmt.Errorf("sim: snapshot names unknown rng stream %q", st.Name)
		}
		if err := e.src.SetState(st.State); err != nil {
			return fmt.Errorf("sim: stream %q: %w", st.Name, err)
		}
	}
	return nil
}
