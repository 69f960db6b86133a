// Package vclock implements the deterministic discrete-event simulation core
// that every experiment in this repository runs on.
//
// A Sim owns a virtual clock and a priority queue of timed events. Components
// schedule callbacks at absolute or relative virtual times; Run drains events
// in time order, advancing the clock instantaneously between them. Determinism
// is guaranteed by (a) virtual time, (b) a stable tie-break on insertion order
// for events at equal times, and (c) the seeded RNG accessor.
//
// The paper's latency-sensitive claims (§III-C: the 100 ms noticeability
// threshold, hundreds-of-ms poorly-peered RTTs) are only reproducible with a
// clock that is immune to host scheduling jitter, which is why the entire
// pipeline — sensors, edge, links, cloud, clients — is event-driven.
package vclock

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly.
var ErrStopped = errors.New("vclock: simulation stopped")

// Event is a scheduled callback. The callback runs with the clock set to the
// event's due time.
//
// Events come in two flavors: handle events (returned by At/After, never
// recycled, cancellable via Cancel) and pooled events (scheduled by
// AfterCallEvent/Ticker, recycled through the simulator's freelist after
// firing or cancellation). A pooled event reaches callers only paired with
// its generation, so a recycled Event can only ever be reached through the
// generation-checked cancel path (CancelCall).
type Event struct {
	due time.Duration
	seq uint64 // insertion order, tie-break for equal due times
	// Exactly one of fn / fnArg is set. fnArg(arg) avoids a closure
	// allocation for callers that thread their state through arg.
	fn     func()
	fnArg  func(any)
	arg    any
	index  int    // heap index, -1 when popped or cancelled
	gen    uint64 // incremented each recycle; guards stale pooled handles
	pooled bool   // recycle into the freelist after firing/cancelling
}

// Cancelled reports whether the event was cancelled or already fired.
func (e *Event) Cancelled() bool { return e.index < 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulator. The zero value is not usable; create one
// with New. Sim is not safe for concurrent use: the simulation model is
// single-threaded by design (determinism), and all callbacks run on the
// goroutine that calls Run or Step.
type Sim struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64

	// free recycles pooled events so steady-state schedulers (tickers, the
	// network simulator's deliveries) allocate no timer state per event.
	free []*Event
}

// New creates a simulator with virtual time zero and an RNG seeded with seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time as an offset from simulation start.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation's seeded RNG. All model randomness must come
// from here so runs are reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events waiting in the queue.
func (s *Sim) Pending() int { return len(s.queue) }

// schedule is the single enqueue path. Pooled events are drawn from the
// freelist; handle events are freshly allocated so the returned pointer stays
// valid (and Cancel-safe) forever.
func (s *Sim) schedule(due time.Duration, fn func(), fnArg func(any), arg any, pooled bool) *Event {
	if due < s.now {
		panic(fmt.Sprintf("vclock: scheduling at %v before now %v", due, s.now))
	}
	var e *Event
	if pooled && len(s.free) > 0 {
		e = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	} else {
		e = &Event{}
	}
	e.due, e.seq, e.fn, e.fnArg, e.arg, e.pooled = due, s.seq, fn, fnArg, arg, pooled
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// recycle returns a popped/cancelled pooled event to the freelist, releasing
// any captured callback state and bumping the generation so stale internal
// handles can never reach the reused event.
func (s *Sim) recycle(e *Event) {
	e.fn, e.fnArg, e.arg = nil, nil, nil
	e.gen++
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute virtual time due. Scheduling in the past
// (before Now) is an error in the model and panics: it always indicates a bug
// in a component rather than a recoverable condition.
func (s *Sim) At(due time.Duration, fn func()) *Event {
	return s.schedule(due, fn, nil, nil, false)
}

// After schedules fn to run delay after the current virtual time.
func (s *Sim) After(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// AfterCallEvent schedules fn(arg) delay after the current virtual time on
// a pooled timer event: after firing, the event is recycled, so steady-state
// callers allocate nothing here. Passing state through arg (a pointer boxes
// allocation-free) instead of capturing it keeps the callback itself
// closure-free too. It returns the pooled event together with its
// generation, so the caller can CancelCall it before it fires (the network
// simulator cancels in-flight deliveries to removed hosts this way). The
// handle is only meaningful paired with the returned generation: once the
// event fires or is cancelled it recycles, and a stale (event, gen) pair is
// silently ignored by CancelCall.
func (s *Sim) AfterCallEvent(delay time.Duration, fn func(any), arg any) (*Event, uint64) {
	if delay < 0 {
		delay = 0
	}
	e := s.schedule(s.now+delay, nil, fn, arg, true)
	return e, e.gen
}

// CancelCall cancels a pooled event scheduled with AfterCallEvent, recycling
// it immediately. Stale handles — the event already fired, was cancelled, or
// has been recycled into a new timer (generation mismatch) — are no-ops, so
// cancellation is always safe.
func (s *Sim) CancelCall(e *Event, gen uint64) { s.cancelPooled(e, gen) }

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.queue, e.index)
	e.index = -1
	if e.pooled {
		s.recycle(e)
	}
}

// cancelPooled cancels a pooled event only if it is still the same logical
// timer the caller scheduled (the generation matches) and it has not fired.
func (s *Sim) cancelPooled(e *Event, gen uint64) {
	if e == nil || e.gen != gen || e.index < 0 {
		return
	}
	s.Cancel(e)
}

// Stop makes Run return ErrStopped after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Step executes the single earliest event, advancing the clock to its due
// time. It reports false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.now = e.due
	s.fired++
	fn, fnArg, arg := e.fn, e.fnArg, e.arg
	if e.pooled {
		// Recycle before running the callback: the event is already off the
		// heap, so a callback that schedules immediately reuses this slot.
		s.recycle(e)
	}
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
	return true
}

// Run executes events until the queue is empty, until virtual time would
// exceed until (events due later stay queued), or until Stop is called.
// It returns nil on normal completion and ErrStopped if stopped.
func (s *Sim) Run(until time.Duration) error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		if s.queue[0].due > until {
			// Leave future events queued; advance the clock to the horizon so
			// repeated Run calls observe contiguous time.
			s.now = until
			return nil
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Sim) RunAll() error {
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		s.Step()
	}
	return nil
}

// Ticker invokes fn every interval of virtual time, starting one interval
// from now, until cancelled. It returns a cancel function. The next tick is
// scheduled before fn runs, so fn may safely stop the ticker.
//
// Tick timer events ride the pooled freelist: a steady-state ticker allocates
// nothing per tick. The pending event is tracked with its generation so
// cancel removes exactly the tick it scheduled and never a recycled reuse.
func (s *Sim) Ticker(interval time.Duration, fn func()) (cancel func()) {
	if interval <= 0 {
		panic("vclock: non-positive ticker interval")
	}
	var (
		ev      *Event
		gen     uint64
		stopped bool
	)
	var tick func(any)
	tick = func(any) {
		if stopped {
			return
		}
		ev = s.schedule(s.now+interval, nil, tick, nil, true)
		gen = ev.gen
		fn()
	}
	ev = s.schedule(s.now+interval, nil, tick, nil, true)
	gen = ev.gen
	return func() {
		stopped = true
		s.cancelPooled(ev, gen)
	}
}
