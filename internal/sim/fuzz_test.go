package sim

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzProcesses runs random process programs through the engine and
// checks the invariants every coroutine implementation must keep:
//
//   - same-instant FIFO: wakes fire in (time, scheduling order);
//   - no lost or double wakes: every blocking call returns exactly once
//     per wake issued to it, a Resume runs the process inside the
//     resuming event, and a process still live when the queue drains
//     is parked in some waiter list;
//   - KillProcesses leaves Live()==0, unwinds every started body through
//     its defers, starts no body, and leaves only inert events behind;
//   - a body panic reaches the Run caller exactly once, as *ProcessPanic;
//   - the same program gives the same activation log twice.
//
// The engine's tick is the program's first Delay (see fuzzTick), so
// the tick lane, the ready lane and the heap all carry events, and the
// FIFO check covers their merge.
//
// The seed corpus lives in testdata/fuzz/FuzzProcesses, so plain
// `go test` replays it; `go test -fuzz FuzzProcesses ./internal/sim`
// explores further.
func FuzzProcesses(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		first := runFuzzProgram(t, prog)
		if again := runFuzzProgram(t, prog); again != first {
			t.Fatalf("same program, different runs:\n%s\nvs\n%s", first, again)
		}
	})
}

// Process program instructions. Each is two bytes: an opcode (taken
// modulo fzNumOps) and an argument.
const (
	fzDelay       = iota // Delay(arg%8)
	fzPause              // Pause until a Wake instruction
	fzWake               // Wake the longest-paused process
	fzWait               // Signal[arg%2].Wait
	fzWaitTimeout        // Signal[arg%2].WaitTimeout(1 + arg>>1%16)
	fzBroadcast          // Signal[arg%2].Broadcast
	fzPulse              // Signal[arg%2].Pulse
	fzAcquire            // Semaphore[arg%2].Acquire
	fzRelease            // Semaphore[arg%2].Release
	fzSpawn              // Spawn script arg (nesting capped)
	fzPanic              // panic with a value naming the process
	fzEvent              // raw event at +arg%8 that may broadcast a signal
	fzResume             // raw event at +arg%8 that resumes the longest-paused process
	fzNumOps
)

type fzOp struct{ code, arg byte }

// fzProc is the harness's record of one spawned process.
type fzProc struct {
	id, script, depth int
	p                 *Process
	started, exited   bool
	// blocked is set while the process sits in a blocking call.
	blocked bool
	// pending counts wakes the harness issued and the process has not
	// yet consumed; ticket orders the latest one against other wakes.
	pending int
	ticket  uint64
}

// fzPanicValue is the value a fzPanic instruction panics with.
type fzPanicValue struct{ id int }

type fzHarness struct {
	e       *Engine
	scripts [][]fzOp
	sigs    [2]Signal
	sems    [2]*Semaphore
	procs   []*fzProc
	byProc  map[*Process]*fzProc
	paused  []*fzProc

	ticket      uint64
	lastAt      Time
	lastTicket  uint64
	activations int
	log         strings.Builder
	killAt      uint64
	over        bool

	panicked map[int]bool
	reported map[int]int
	errs     []string
}

func (h *fzHarness) fail(format string, args ...any) {
	if len(h.errs) < 8 {
		h.errs = append(h.errs, fmt.Sprintf("t=%v: ", h.e.Now())+fmt.Sprintf(format, args...))
	}
}

func (h *fzHarness) nextTicket() uint64 {
	h.ticket++
	return h.ticket
}

// activate records one tracked activation (a process resuming from a
// wake the harness scheduled, or a harness event firing) and checks it
// against the previous one: activations fire in (time, ticket) order,
// and tickets follow scheduling order.
func (h *fzHarness) activate(what string, ticket uint64) {
	now := h.e.Now()
	if now < h.lastAt || (now == h.lastAt && ticket <= h.lastTicket) {
		h.fail("%s (ticket %d) fired after (t=%v, ticket %d): same-instant FIFO broken", what, ticket, h.lastAt, h.lastTicket)
	}
	h.lastAt, h.lastTicket = now, ticket
	h.activations++
	fmt.Fprintf(&h.log, "%s@%d ", what, now)
}

// markWake records that the harness is about to wake fp: the engine
// schedules the resume right after, so the ticket sits in seq order.
func (h *fzHarness) markWake(fp *fzProc) {
	fp.pending++
	fp.ticket = h.nextTicket()
}

func (h *fzHarness) spawn(script, depth int) {
	fp := &fzProc{id: len(h.procs), script: script, depth: depth, pending: 1}
	h.procs = append(h.procs, fp)
	fp.ticket = h.nextTicket()
	fp.p = h.e.Spawn(fmt.Sprintf("p%d", fp.id), func(p *Process) { h.body(fp, p) })
	h.byProc[fp.p] = fp
}

// consume checks a resume that a harness wake caused.
func (h *fzHarness) consume(fp *fzProc, what string) {
	if fp.pending != 1 {
		h.fail("p%d resumed from %s with %d pending wakes, want 1", fp.id, what, fp.pending)
	}
	fp.pending = 0
	h.activate(fmt.Sprintf("p%d.%s", fp.id, what), fp.ticket)
}

// block runs a blocking call that only a harness-issued wake may end.
func (h *fzHarness) block(fp *fzProc, what string, call func()) {
	if fp.pending != 0 {
		h.fail("p%d blocks in %s with %d wakes pending", fp.id, what, fp.pending)
	}
	fp.blocked = true
	call()
	fp.blocked = false
	h.consume(fp, what)
}

func (h *fzHarness) broadcast(k int) {
	for _, w := range h.sigs[k].waiters {
		h.markWake(h.byProc[w])
	}
	h.sigs[k].Broadcast()
}

func (h *fzHarness) body(fp *fzProc, p *Process) {
	fp.started = true
	defer func() { fp.exited = true }()
	h.consume(fp, "start")
	for _, op := range h.scripts[fp.script] {
		switch op.code % fzNumOps {
		case fzDelay:
			d := Time(op.arg % 8)
			start := p.Now()
			fp.ticket = h.nextTicket()
			p.Delay(d)
			if p.Now() != start+d {
				h.fail("p%d Delay(%d) from %v returned at %v", fp.id, d, start, p.Now())
			}
			h.activate(fmt.Sprintf("p%d.delay", fp.id), fp.ticket)
		case fzPause:
			h.paused = append(h.paused, fp)
			h.block(fp, "pause", p.Pause)
		case fzWake:
			if len(h.paused) > 0 {
				w := h.paused[0]
				h.paused = h.paused[1:]
				h.markWake(w)
				w.p.Wake()
			}
		case fzWait:
			s := &h.sigs[op.arg%2]
			h.block(fp, "wait", func() { s.Wait(p) })
		case fzWaitTimeout:
			s := &h.sigs[op.arg%2]
			d := 1 + Time(op.arg>>1%16)
			start := p.Now()
			if fp.pending != 0 {
				h.fail("p%d waits with %d wakes pending", fp.id, fp.pending)
			}
			fp.blocked = true
			signalled := s.WaitTimeout(p, d)
			fp.blocked = false
			switch {
			case signalled && p.Now() > start+d:
				h.fail("p%d signalled at %v, after its timeout at %v", fp.id, p.Now(), start+d)
			case signalled:
				h.consume(fp, "signalled")
			case p.Now() != start+d:
				h.fail("p%d timed out at %v, want %v", fp.id, p.Now(), start+d)
			case fp.pending != 0:
				h.fail("p%d timed out with %d wakes pending: a wake was lost", fp.id, fp.pending)
			default:
				fmt.Fprintf(&h.log, "p%d.timeout@%d ", fp.id, p.Now())
			}
		case fzBroadcast:
			h.broadcast(int(op.arg % 2))
		case fzPulse:
			s := &h.sigs[op.arg%2]
			had := len(s.waiters) > 0
			if had {
				h.markWake(h.byProc[s.waiters[0]])
			}
			if s.Pulse() != had {
				h.fail("p%d Pulse reported %v with %d waiters", fp.id, !had, len(s.waiters))
			}
		case fzAcquire:
			sem := h.sems[op.arg%2]
			if sem.count > 0 && len(sem.waiters) == 0 {
				sem.Acquire(p)
			} else {
				h.block(fp, "acquire", func() { sem.Acquire(p) })
			}
		case fzRelease:
			sem := h.sems[op.arg%2]
			if len(sem.waiters) > 0 {
				h.markWake(h.byProc[sem.waiters[0]])
			}
			sem.Release()
		case fzSpawn:
			if fp.depth < 3 && len(h.procs) < 48 {
				h.spawn(int(op.arg)%len(h.scripts), fp.depth+1)
			}
		case fzPanic:
			h.panicked[fp.id] = true
			panic(fzPanicValue{fp.id})
		case fzEvent:
			d := Time(op.arg % 8)
			k := int(op.arg>>3) % 3
			tk := h.nextTicket()
			h.e.Schedule(d, func() {
				if h.over {
					return
				}
				h.activate(fmt.Sprintf("event%d", k), tk)
				if k < 2 {
					h.broadcast(k)
				}
			})
		case fzResume:
			d := Time(op.arg % 8)
			tk := h.nextTicket()
			h.e.Schedule(d, func() {
				if h.over {
					return
				}
				if len(h.paused) == 0 {
					h.activate("resume-none", tk)
					return
				}
				w := h.paused[0]
				h.paused = h.paused[1:]
				// The process runs inside this event, so its activation
				// carries the event's ticket.
				w.pending++
				w.ticket = tk
				w.p.Resume()
			})
		}
	}
}

// runOnce runs the engine until it drains, is stopped by the kill
// probe, or re-raises a body panic, which it returns.
func (h *fzHarness) runOnce() (pp *ProcessPanic) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if pp, ok = r.(*ProcessPanic); !ok {
				h.fail("Run panicked with %T (%v), want *ProcessPanic", r, r)
			}
		}
	}()
	h.e.Run()
	return nil
}

func decodeFuzzProgram(h *fzHarness, prog []byte) (nInit int) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	nInit = 1 + int(next()%4)
	h.killAt = uint64(next() % 64) // 0: never kill
	h.sems[0] = NewSemaphore(int(next() % 3))
	h.sems[1] = NewSemaphore(int(next() % 3))
	h.scripts = make([][]fzOp, 1+next()%6)
	for i := range h.scripts {
		n := int(next() % 12)
		for j := 0; j < n; j++ {
			h.scripts[i] = append(h.scripts[i], fzOp{next(), next()})
		}
	}
	return nInit
}

// fuzzTick returns the delay of the program's first Delay instruction,
// or 1 when it has none. Set as the engine's tick, it routes every
// repeat of that delay, and any event or timeout that lands on it,
// through the tick lane, as a machine's tick carries its CPUs'
// references.
func fuzzTick(scripts [][]fzOp) Time {
	for _, sc := range scripts {
		for _, op := range sc {
			if op.code%fzNumOps == fzDelay {
				return Time(op.arg % 8)
			}
		}
	}
	return 1
}

// runFuzzProgram runs one program and returns its activation log.
func runFuzzProgram(t *testing.T, prog []byte) string {
	h := &fzHarness{
		e:        NewEngine(),
		byProc:   make(map[*Process]*fzProc),
		panicked: make(map[int]bool),
		reported: make(map[int]int),
	}
	nInit := decodeFuzzProgram(h, prog)
	h.e.SetTick(fuzzTick(h.scripts))
	for i := 0; i < nInit; i++ {
		h.spawn(i%len(h.scripts), 0)
	}
	stopped := false
	if h.killAt > 0 {
		h.e.SetCancelCheck(1, func() bool {
			stopped = h.e.Metrics().EventsFired >= h.killAt
			return stopped
		})
	}
	for {
		pp := h.runOnce()
		if pp == nil {
			break
		}
		v, ok := pp.Value.(fzPanicValue)
		switch {
		case !ok:
			h.fail("ProcessPanic carries %T (%v), want a program panic", pp.Value, pp.Value)
		case pp.Proc != fmt.Sprintf("p%d", v.id):
			h.fail("ProcessPanic.Proc = %q for a panic in p%d", pp.Proc, v.id)
		case len(pp.Stack) == 0:
			h.fail("ProcessPanic from p%d has no stack", v.id)
		}
		if !ok {
			break
		}
		h.reported[v.id]++
		fmt.Fprintf(&h.log, "panic:p%d ", v.id)
	}
	for id := range h.panicked {
		if h.reported[id] != 1 {
			h.fail("p%d's panic reached the Run caller %d times, want 1", id, h.reported[id])
		}
	}
	for id := range h.reported {
		if !h.panicked[id] {
			h.fail("Run caller got a panic p%d never raised", id)
		}
	}

	if stopped {
		started := func() (n int) {
			for _, fp := range h.procs {
				if fp.started {
					n++
				}
			}
			return n
		}
		before := started()
		h.e.KillProcesses()
		if n := h.e.Live(); n != 0 {
			h.fail("Live() = %d after KillProcesses, want 0", n)
		}
		if n := started() - before; n != 0 {
			h.fail("KillProcesses started %d bodies", n)
		}
		for _, fp := range h.procs {
			if fp.started && !fp.exited {
				h.fail("p%d did not unwind through its defers when killed", fp.id)
			}
		}
		// Whatever the kill left queued must be inert.
		h.over = true
		h.e.SetCancelCheck(0, nil)
		activations := h.activations
		h.runOnce()
		if n := h.activations - activations; n != 0 {
			h.fail("%d activations after KillProcesses", n)
		}
		fmt.Fprintf(&h.log, "killed@%d", h.e.Now())
	} else {
		waiting := len(h.paused)
		for i := range h.sigs {
			waiting += len(h.sigs[i].waiters) + len(h.sems[i].waiters)
		}
		blocked := 0
		for _, fp := range h.procs {
			if fp.blocked {
				blocked++
			}
		}
		if live := h.e.Live(); live != waiting || live != blocked {
			h.fail("drained with %d live processes, %d blocked in the program, %d in waiter lists: a wake was lost", live, blocked, waiting)
		}
		h.e.KillProcesses()
		if n := h.e.Live(); n != 0 {
			h.fail("Live() = %d after the final KillProcesses, want 0", n)
		}
		fmt.Fprintf(&h.log, "drained@%d", h.e.Now())
	}
	if len(h.errs) > 0 {
		t.Fatalf("program %x:\n%s\nlog: %s", prog, strings.Join(h.errs, "\n"), h.log.String())
	}
	return h.log.String()
}
