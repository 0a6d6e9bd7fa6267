// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in nanoseconds and a
// queue of events. Events fire in time order, and events scheduled for
// the same instant fire in the order they were scheduled, so a
// simulation run is exactly reproducible: the same inputs always
// produce the same event ordering. The queue is a binary heap plus two
// FIFO lanes: one for events due now (every wake and spawn) and one for
// events due exactly one tick ahead (every reference of a machine's
// CPUs, once the machine has set the tick). An event in a lane was
// scheduled the lane's fixed delay after a clock that never runs
// backwards, so each lane is already in firing order and costs O(1)
// to push and to fire; the loop fires whichever of the three heads is
// earliest.
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

// event is a queue entry, held by value in the heap and the lanes.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// lane is a FIFO ring of events pushed in firing order. The ring
// doubles when full and keeps its storage, so a lane reaches its peak
// depth once and then allocates nothing.
type lane struct {
	buf  []event // ring storage; its length is 0 or a power of two
	head int     // index of the oldest event
	n    int     // events queued
}

// push appends ev at the tail.
//
//vmplint:hotpath
func (l *lane) push(ev event) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

// grow doubles the ring, moving its events to the front in order.
//
//vmplint:hotpath
func (l *lane) grow() {
	buf := make([]event, max(2*len(l.buf), 64)) //vmplint:allow hotalloc a lane doubles until it holds its peak depth, then reuses its ring; the core/trace-hit (tick lane) and copier/transfer (ready lane) micros pin 0 allocs/op
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes the oldest event. The lane must not be empty.
//
//vmplint:hotpath
func (l *lane) pop() {
	l.buf[l.head].fn = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

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
	// MaxQueueDepth is the high-water mark of pending events, counted
	// over the heap and both lanes.
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
	now Time
	// heap holds the events neither lane takes, as a binary heap
	// ordered by (at, seq). ready holds the events due now, and ticks
	// the events due tick after now; tick 0 leaves ticks unused.
	heap    []event
	ready   lane
	ticks   lane
	tick    Time
	seq     uint64
	stopped bool

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
// heap preallocated. Its tick lane is unused until SetTick.
func NewEngine() *Engine {
	return &Engine{heap: make([]event, 0, 256)}
}

// SetTick routes every event due exactly d after the current time into
// the tick lane instead of the heap. A machine sets its reference time,
// the delay of each CPU's next reference. d = 0 leaves the lane unused.
// The lane's order rests on one delay for all of its events, so the
// tick cannot change while tick events are queued.
func (e *Engine) SetTick(d Time) {
	if e.ticks.n > 0 {
		panic("sim: SetTick with tick events queued")
	}
	e.tick = d
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
	ev := event{at: t, seq: e.seq, fn: fn}
	switch t {
	case e.now:
		e.ready.push(ev)
	case e.now + e.tick:
		e.ticks.push(ev)
	default:
		e.push(ev)
	}
	e.metrics.EventsScheduled++
	if n := e.Pending(); n > e.metrics.MaxQueueDepth {
		e.metrics.MaxQueueDepth = n
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
func (e *Engine) push(ev event) {
	q := append(e.heap, ev) //vmplint:allow hotalloc heap reaches peak-depth capacity once, then appends reuse it; the engine/schedule-fire micro pins 0 allocs/op
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&ev, &q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	e.heap = q
}

// pop removes the heap's earliest event.
//
//vmplint:hotpath
func (e *Engine) pop() {
	q := e.heap
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&q[r], &q[c]) {
			c = r
		}
		if !before(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	e.heap = q
}

// next returns the earliest queued event by (at, seq) and the lane
// holding it, nil for the heap. It returns a nil event when nothing is
// queued.
//
//vmplint:hotpath
func (e *Engine) next() (*event, *lane) {
	var ev *event
	var from *lane
	if e.ready.n > 0 {
		ev, from = &e.ready.buf[e.ready.head], &e.ready
	}
	if e.ticks.n > 0 {
		if t := &e.ticks.buf[e.ticks.head]; ev == nil || before(t, ev) {
			ev, from = t, &e.ticks
		}
	}
	if len(e.heap) > 0 && (ev == nil || before(&e.heap[0], ev)) {
		ev, from = &e.heap[0], nil
	}
	return ev, from
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

// Pending reports the number of queued events, in the heap and both
// lanes.
func (e *Engine) Pending() int { return len(e.heap) + e.ready.n + e.ticks.n }

// Run processes events in order until the queue is empty or Stop is
// called. It returns the final simulated time.
func (e *Engine) Run() Time { return e.RunUntil(-1) }

// RunUntil processes events until the queue is empty, Stop is called, or
// the next event would fire after deadline (deadline < 0 means no
// deadline). Events exactly at the deadline still fire. The clock is
// advanced to the deadline if it is reached; after Stop or the cancel
// probe it stays at the last event fired, and a deadline already past
// leaves it where it is, so the clock never runs backwards. Live
// processes stay parked until they are resumed or killed.
func (e *Engine) RunUntil(deadline Time) Time {
	//vmplint:allow simclock wall-clock measurement only: Metrics.Wall reports host cost and never feeds simulated state
	start := time.Now()
	//vmplint:allow simclock wall-clock measurement only: Metrics.Wall reports host cost and never feeds simulated state
	defer func() { e.metrics.Wall += time.Since(start) }()
	e.stopped = false
	for !e.stopped {
		ev, from := e.next()
		if ev == nil || (deadline >= 0 && ev.at > deadline) {
			e.now = max(e.now, deadline)
			return e.now
		}
		e.now = ev.at
		fn := ev.fn
		if from != nil {
			from.pop()
		} else {
			e.pop()
		}
		e.metrics.EventsFired++
		fn()
		if e.checkFn != nil && e.metrics.EventsFired%e.checkEvery == 0 && e.checkFn() {
			return e.now
		}
	}
	return e.now
}
