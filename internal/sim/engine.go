// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in nanoseconds and a
// priority queue of events. Events scheduled for the same instant fire in
// the order they were scheduled, so a simulation run is exactly
// reproducible: the same inputs always produce the same event ordering.
//
// On top of the raw event queue, Process offers a coroutine abstraction:
// each simulated actor (a CPU, a DMA device, a block copier) runs on an
// iter.Pull coroutine that advances virtual time with Delay and
// synchronizes with other actors through Signal and Semaphore. The
// engine resumes at most one process at a time, so process code may
// read and write shared simulation state without locks. Every Spawn
// starts a fresh coroutine, which ends when its body returns. A
// process that pauses between requests, like a block copier, is still
// live when Run returns; its owner ends it with KillProcesses, so no
// goroutine outlives a run.
//
// Each engine owns a stats.Recorder — the per-run metrics sink in which
// the machine components (bus, caches, monitors, copiers, boards)
// register their counter fields by name. An engine and everything built
// on it is confined to one run; independent engines share nothing, so
// whole simulations can run concurrently on separate goroutines.
package sim

import (
	"fmt"
	"time"

	"vmp/internal/stats"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation.
type Time int64

// Common durations, expressed in Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with a unit suffix chosen by magnitude.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a pooled queue entry. Fired events return to the engine's
// free list, so steady-state simulation allocates no events at all.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	next *event // free-list link while recycled
}

// eventChunkSize is how many events one pool refill allocates.
const eventChunkSize = 128

// Metrics is a snapshot of the engine's own measurements: how much work
// the event loop did and how long it took in wall-clock terms. Together
// with Now() they give sim-ns per wall-ms, the simulator's throughput.
type Metrics struct {
	// EventsFired counts events whose callbacks have run.
	EventsFired uint64
	// EventsScheduled counts Schedule/At calls.
	EventsScheduled uint64
	// Switches counts coroutine resumptions: each time control passes
	// from the engine into a process, by a step event or by Resume.
	Switches uint64
	// MaxQueueDepth is the high-water mark of the pending-event heap.
	MaxQueueDepth int
	// Wall is the accumulated wall-clock time spent inside Run/RunUntil.
	Wall time.Duration
}

// SimNsPerWallMs reports simulated nanoseconds advanced per wall-clock
// millisecond of event-loop time (0 if no wall time has accumulated).
func (m Metrics) SimNsPerWallMs(now Time) float64 {
	ms := float64(m.Wall) / float64(time.Millisecond)
	if ms == 0 {
		return 0
	}
	return float64(now) / ms
}

// Engine is a discrete-event simulation engine. The zero value is ready
// to use.
type Engine struct {
	now     Time
	queue   []*event // binary heap ordered by (at, seq)
	seq     uint64
	stopped bool

	// Event pool: free list refilled from chunk allocations.
	free  *event
	chunk []event

	metrics Metrics
	rec     *stats.Recorder

	// plist holds the live processes, each at its slot, so
	// KillProcesses can unwind the ones still parked in a yield.
	plist []*Process

	// checkEvery/checkFn implement the host-side cancellation probe
	// installed by SetCancelCheck. checkFn never influences a run that
	// it does not stop, so installing it cannot change simulated
	// behavior.
	checkEvery uint64
	checkFn    func() bool
}

// NewEngine returns a new engine with the clock at zero and the event
// heap preallocated.
func NewEngine() *Engine {
	return &Engine{queue: make([]*event, 0, 256)}
}

// Recorder returns the engine's per-run metrics sink, creating it on
// first use (so the zero-value Engine keeps working).
func (e *Engine) Recorder() *stats.Recorder {
	if e.rec == nil {
		e.rec = stats.NewRecorder()
	}
	return e.rec
}

// Metrics returns a snapshot of the engine's event-loop measurements.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an event from the pool, refilling it a chunk at a time.
//
//vmplint:hotpath
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	if len(e.chunk) == 0 {
		e.chunk = make([]event, eventChunkSize) //vmplint:allow hotalloc free-list chunk refill is amortized zero-alloc; the engine/schedule-fire micro pins 0 allocs/op
	}
	ev := &e.chunk[0]
	e.chunk = e.chunk[1:]
	return ev
}

// recycle clears an event and returns it to the free list.
//
//vmplint:hotpath
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.next = e.free
	e.free = ev
}

// Schedule runs fn after delay d. A negative delay is an error in the
// caller; Schedule panics to surface the bug immediately.
//
//vmplint:hotpath
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// At runs fn at absolute time t, which must not be in the past.
//
//vmplint:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.push(ev)
	e.metrics.EventsScheduled++
	if len(e.queue) > e.metrics.MaxQueueDepth {
		e.metrics.MaxQueueDepth = len(e.queue)
	}
}

// before reports whether a fires before b: earlier time, or same time
// and scheduled earlier.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts an event into the heap (hand-rolled to keep the hot path
// free of interface conversions).
//
//vmplint:hotpath
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev) //vmplint:allow hotalloc queue reaches peak-depth capacity once, then appends reuse it; the engine/schedule-fire micro pins 0 allocs/op
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the earliest event.
//
//vmplint:hotpath
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && before(q[l], q[least]) {
			least = l
		}
		if r < n && before(q[r], q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	e.queue = q
	return top
}

// Stop makes the current Run call return after the in-flight event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// SetCancelCheck installs a host-side cancellation probe: every n fired
// events the engine calls f, and when f reports true the current Run
// returns after the in-flight event. Pass (0, nil) to uninstall. The
// probe is the sanctioned bridge between wall-clock deadlines
// (context.Context) and the simulated world: a probe that never fires
// leaves the run byte-identical to one with no probe installed, so
// determinism only ends at the moment of cancellation — exactly when
// the run's results are discarded anyway.
func (e *Engine) SetCancelCheck(n uint64, f func() bool) {
	if n == 0 || f == nil {
		e.checkEvery, e.checkFn = 0, nil
		return
	}
	e.checkEvery, e.checkFn = n, f
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Run processes events in order until the queue is empty or Stop is
// called. It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(-1) }

// RunUntil processes events until the queue is empty, Stop is called, or
// the next event would fire after deadline (deadline < 0 means no
// deadline). Events exactly at the deadline still fire. The clock is
// advanced to the deadline if it is reached. Live processes stay
// parked until they are resumed or killed.
func (e *Engine) RunUntil(deadline Time) Time {
	//vmplint:allow simclock wall-clock measurement only: Metrics.Wall reports host cost and never feeds simulated state
	start := time.Now()
	//vmplint:allow simclock wall-clock measurement only: Metrics.Wall reports host cost and never feeds simulated state
	defer func() { e.metrics.Wall += time.Since(start) }()
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if deadline >= 0 && next.at > deadline {
			e.now = deadline
			return e.now
		}
		e.pop()
		e.now = next.at
		fn := next.fn
		e.recycle(next)
		e.metrics.EventsFired++
		fn()
		if e.checkFn != nil && e.metrics.EventsFired%e.checkEvery == 0 && e.checkFn() {
			return e.now
		}
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}
