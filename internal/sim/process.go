package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
)

// Process is a coroutine bound to an Engine. Its body runs on a stdlib
// iter.Pull coroutine: the engine resumes it with next, and Delay,
// Pause and the wait points hand control back with yield. Exactly one
// of the engine loop and the processes runs at any moment, so process
// bodies may touch shared simulation state without locking.
//
// A process must not be resumed from two events at once; the engine's
// single-threaded event loop guarantees this as long as user code only
// wakes processes through the provided primitives (Delay, Signal,
// Semaphore, Wake).
//
// Each Spawn starts a fresh coroutine, which ends when its body
// returns or KillProcesses unwinds it. A process that pauses for ever
// lives until KillProcesses, so a long-lived server process (a board's
// block copier) costs one coroutine per run, not one per request.
type Process struct {
	eng  *Engine
	name string
	body func(p *Process)
	// next resumes the coroutine until its next yield; stop makes a
	// parked yield return false, which unwinds the coroutine.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// slot is the process's index in Engine.plist while it is live.
	slot int
	// killed marks a process being unwound by KillProcesses: its parked
	// yield returns false and the body panics with the kill sentinel.
	killed bool
	// blocked is true while the process waits for an external wake
	// (Signal/Semaphore/Pause) rather than a self-scheduled Delay.
	blocked bool
	// stepFn is the step method value, bound once so the Delay/Wake hot
	// path does not allocate a fresh closure per call.
	stepFn func()
	// timeouts is the free list of the process's WaitTimeout records.
	timeouts *timeout
}

// ProcessPanic is the value Run re-panics with when a process body
// panics. The coroutine wraps the fault while the body's frames are
// still on its stack, and iter.Pull re-raises it from the engine's
// resume call, so a caller of Run can contain a simulator fault (a
// livelock hard limit, a protocol assertion) with an ordinary recover.
type ProcessPanic struct {
	// Proc is the name of the process whose body panicked.
	Proc string
	// Value is the original panic value.
	Value any
	// Stack is the panicking coroutine's stack at the point of capture.
	Stack []byte
}

// String renders the fault headline (without the stack).
func (pp *ProcessPanic) String() string {
	return fmt.Sprintf("process %q panicked: %v", pp.Proc, pp.Value)
}

// Error is String, so a contained fault can be returned as an error
// from which errors.As recovers the stack.
func (pp *ProcessPanic) Error() string { return pp.String() }

// killSentinel is the panic value a killed process's parked yield
// raises to unwind its body; the coroutine swallows it.
type killSentinel struct{}

// Spawn starts body as a new simulated process on a fresh coroutine.
// The body begins executing at the current simulated time, after
// already-queued events for this instant. Spawn may be called both from
// outside Run and from within event callbacks or other processes.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name, body: body, slot: len(e.plist)}
	p.stepFn = p.step
	p.next, p.stop = iter.Pull(p.run)
	e.plist = append(e.plist, p)
	e.Schedule(0, p.stepFn)
	return p
}

// run is the coroutine's iterator function: it runs the body once. A
// killed process is taken off the live list by KillProcesses.
func (p *Process) run(yield func(struct{}) bool) {
	p.yield = yield
	p.exec()
	if !p.killed {
		p.eng.unlist(p)
	}
}

// exec runs the body. A body panic is rewrapped as a
// *ProcessPanic while the body's frames are still on the stack, and
// leaves the coroutine through next. A kill's sentinel, and anything a
// deferred call panics with while a kill unwinds the body, is
// swallowed: the killed simulation is abandoned regardless.
func (p *Process) exec() {
	defer func() {
		if r := recover(); r != nil && !p.killed {
			p.eng.unlist(p)
			panic(&ProcessPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	p.body(p)
}

// unlist removes p from the live list.
func (e *Engine) unlist(p *Process) {
	n := len(e.plist) - 1
	last := e.plist[n]
	e.plist[p.slot], last.slot = last, p.slot
	e.plist[n] = nil
	e.plist = e.plist[:n]
}

// KillProcesses unwinds every live process: each parked yield returns
// false and the body panics internally with a kill sentinel, so it
// runs its defers and its coroutine ends instead of leaking. A process
// whose body has not started never runs it. Call KillProcesses only
// from outside Run (never from an event callback or process body). It
// ends processes that pause for ever, such as a board's block copier,
// once a run has finished, and it abandons a cancelled or faulted
// simulation, whose simulated state must not be trusted afterwards.
func (e *Engine) KillProcesses() {
	for len(e.plist) > 0 {
		p := e.plist[len(e.plist)-1]
		p.killed = true
		p.stop()
		e.unlist(p)
	}
}

// Live reports the number of processes that have been spawned and have
// not yet returned or been killed. After Run completes, a process that
// pauses between requests (a block copier) counts as live until
// KillProcesses; any other live process usually means a process is
// blocked forever (a simulation deadlock).
func (e *Engine) Live() int { return len(e.plist) }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.now }

// step transfers control into the process until its next yield. It is
// the only way a process ever runs, so process execution is serialized
// with all other events. A body panic comes out of next as a
// *ProcessPanic, on the goroutine running the engine. The coroutine of
// a killed or panicked process has ended, and next returns at once, so
// a wake still queued for it is inert.
//
//vmplint:hotpath
func (p *Process) step() {
	p.eng.metrics.Switches++
	p.next()
}

// switchOut returns control to the engine until the next step resumes
// the process. While a kill unwinds the body it returns at once, so a
// deferred Delay or Pause cannot park a dying coroutine.
//
//vmplint:hotpath
func (p *Process) switchOut() {
	if p.killed {
		return
	}
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
}

// Delay advances this process's local activity by d simulated time.
// Other events and processes run in the meantime.
//
//vmplint:hotpath
func (p *Process) Delay(d Time) {
	p.eng.Schedule(d, p.stepFn)
	p.switchOut()
}

// Pause blocks the process until something calls Wake. Use it to wait
// for a condition managed by other simulation actors.
func (p *Process) Pause() {
	p.blocked = true
	p.switchOut()
}

// Blocked reports whether the process is paused waiting for a Wake.
func (p *Process) Blocked() bool { return p.blocked }

// Wake schedules the process to resume at the current simulated time.
// It must only be called while the process is paused via Pause (directly
// or through Signal/Semaphore); waking a process that is not paused
// corrupts the coroutine handshake.
func (p *Process) Wake() {
	if !p.blocked {
		panic("sim: Wake of a process that is not paused: " + p.name)
	}
	p.blocked = false
	p.eng.Schedule(0, p.stepFn)
}

// Resume runs a process paused via Pause inside the current event,
// until its next yield. Unlike Wake it schedules nothing: no event is
// added, so an event callback that usually finishes its work alone can
// hand over to a process when it must without changing the event
// sequence. Call it from an event callback. Resuming a process that is
// not paused panics.
func (p *Process) Resume() {
	if !p.blocked {
		panic("sim: Resume of a process that is not paused: " + p.name)
	}
	p.blocked = false
	p.step()
}

// Signal is a broadcast condition variable for processes. The zero
// value is ready to use.
type Signal struct {
	waiters []*Process
}

// Wait pauses p until the next Broadcast or Pulse that includes it.
func (s *Signal) Wait(p *Process) {
	s.waiters = append(s.waiters, p)
	p.Pause()
}

// Broadcast wakes every waiting process. The processes resume at the
// current simulated time in the order they began waiting. The waiter
// list keeps its storage, so a signal waited on over and over does not
// allocate.
func (s *Signal) Broadcast() {
	for _, p := range s.waiters {
		p.Wake()
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// WaitTimeout waits on the signal for at most d, reporting whether the
// signal (true) or the timeout (false) woke the process. The timeout
// wake removes the process from the waiter list, so a later Broadcast
// does not touch it. The wait takes a timeout record from the
// process's free list, so a process that waits over and over does not
// allocate.
func (s *Signal) WaitTimeout(p *Process, d Time) bool {
	t := p.timeouts
	if t == nil {
		t = &timeout{p: p}
		t.fireFn = t.fire
	} else {
		p.timeouts = t.next
	}
	t.s, t.waiting, t.queued, t.signalled = s, true, true, true
	p.eng.Schedule(d, t.fireFn)
	s.Wait(p)
	t.waiting = false
	signalled := t.signalled
	if !t.queued {
		t.free()
	}
	return signalled
}

// timeout is one WaitTimeout's record: the wait it ends and its timeout
// event's callback, bound once. A record returns to its process's free
// list only once its event has fired and its wait is over: a record
// whose event is still queued (the signal came first) is not reused,
// since that event would end a later wait.
type timeout struct {
	p      *Process
	s      *Signal
	fireFn func()
	next   *timeout // on the process's free list
	// waiting is true until the wait returns, queued until the event
	// fires.
	waiting, queued bool
	signalled       bool
}

// fire is the timeout event: it ends the wait unless the signal did.
func (t *timeout) fire() {
	t.queued = false
	if !t.waiting {
		t.free()
		return
	}
	for i, w := range t.s.waiters {
		if w == t.p {
			t.s.waiters = slices.Delete(t.s.waiters, i, i+1)
			t.signalled = false
			t.p.Wake()
			return
		}
	}
}

func (t *timeout) free() {
	t.next = t.p.timeouts
	t.p.timeouts = t
}

// Pulse wakes the longest-waiting process, if any, and reports whether
// one was woken. The other waiters move down, so the list keeps its
// storage and a signal pulsed over and over does not allocate.
func (s *Signal) Pulse() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	s.waiters = slices.Delete(s.waiters, 0, 1)
	p.Wake()
	return true
}

// Waiting reports the number of processes blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Semaphore is a counting semaphore with FIFO wakeup. The zero value has
// a count of zero.
type Semaphore struct {
	count   int
	waiters []*Process
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(n int) *Semaphore { return &Semaphore{count: n} }

// Acquire decrements the semaphore, pausing p until a unit is available.
// Units are granted in FIFO order.
func (s *Semaphore) Acquire(p *Process) {
	if s.count > 0 && len(s.waiters) == 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, p)
	p.Pause()
}

// Release increments the semaphore, waking the longest waiter if any.
// The other waiters move down, so the list keeps its storage and a
// contended semaphore does not allocate.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters = slices.Delete(s.waiters, 0, 1)
		p.Wake()
		return
	}
	s.count++
}
