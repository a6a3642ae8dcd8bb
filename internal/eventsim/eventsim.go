// Package eventsim implements a discrete-event simulation engine: a
// virtual clock and a binary-heap event queue with stable FIFO ordering
// among simultaneous events, plus cancellable timers. It backs the
// message-level simulator (internal/msgsim) that cross-validates the
// flow-level simulator.
package eventsim

import (
	"container/heap"
	"fmt"
)

// Time is virtual simulation time in nanosecond ticks. Use the
// convenience constants to stay unit-safe.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time in seconds.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a scheduled callback.
type Event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // heap index; -1 once popped or cancelled
}

// Engine is a single-threaded discrete-event executor. It is not safe
// for concurrent use; run one Engine per goroutine.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventHeap
	nmax   int // high-water mark of queue length
	nsched uint64
	nrun   uint64
}

// New returns an empty engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ScheduledEvents returns the total number of events ever scheduled.
func (e *Engine) ScheduledEvents() uint64 { return e.nsched }

// ExecutedEvents returns the number of events that have run.
func (e *Engine) ExecutedEvents() uint64 { return e.nrun }

// QueueHighWater returns the maximum queue length observed.
func (e *Engine) QueueHighWater() int { return e.nmax }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics — it indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("eventsim: nil event function")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.nsched++
	heap.Push(&e.queue, ev)
	if len(e.queue) > e.nmax {
		e.nmax = len(e.queue)
	}
	return ev
}

// After schedules fn d ticks from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic("eventsim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Cancel removes ev from the queue if it has not run. It is a no-op for
// already-run or already-cancelled events.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
	ev.fn = nil
}

// Step runs the earliest event and advances the clock to it. It returns
// false when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		ev.index = -1
		fn := ev.fn
		ev.fn = nil
		if fn == nil {
			continue // cancelled after pop race cannot happen, but be safe
		}
		e.now = ev.at
		e.nrun++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events scheduled beyond deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Every schedules fn to run every period ticks starting at now+period,
// until the returned stop function is called.
func (e *Engine) Every(period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic("eventsim: non-positive period")
	}
	stopped := false
	var tick func()
	var pending *Event
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			pending = e.After(period, tick)
		}
	}
	pending = e.After(period, tick)
	return func() {
		stopped = true
		e.Cancel(pending)
	}
}

// eventHeap orders by (time, sequence) so simultaneous events run FIFO.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
