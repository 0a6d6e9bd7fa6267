package sim

import (
	"strings"
	"testing"
)

// TestCancelCheckStopsRun: an installed probe that trips stops the run
// promptly, and the clock stays at the last fired event.
func TestCancelCheckStopsRun(t *testing.T) {
	eng := NewEngine()
	fired := 0
	for i := 0; i < 1000; i++ {
		eng.Schedule(Time(i), func() { fired++ })
	}
	eng.SetCancelCheck(10, func() bool { return true })
	eng.Run()
	if fired >= 1000 {
		t.Fatalf("cancel check did not stop the run: %d events fired", fired)
	}
	if eng.Pending() == 0 {
		t.Fatal("expected events left in the queue after cancellation")
	}
}

// TestCancelCheckNeverFiringIsIdentical: a probe that never trips
// leaves the run identical to one with no probe installed.
func TestCancelCheckNeverFiringIsIdentical(t *testing.T) {
	run := func(install bool) (Time, uint64) {
		eng := NewEngine()
		var order []int
		for i := 0; i < 500; i++ {
			i := i
			eng.Schedule(Time((i*2654435761)%997), func() { order = append(order, i) })
		}
		if install {
			eng.SetCancelCheck(7, func() bool { return false })
		}
		end := eng.Run()
		sum := uint64(0)
		for pos, v := range order {
			sum = sum*31 + uint64(pos) + uint64(v)
		}
		return end, sum
	}
	endA, sumA := run(false)
	endB, sumB := run(true)
	if endA != endB || sumA != sumB {
		t.Fatalf("probe changed the run: (%v,%d) vs (%v,%d)", endA, sumA, endB, sumB)
	}
}

// TestKillProcessesUnwindsParked: killed processes run their defers and
// exit, leaving no live coroutines behind.
func TestKillProcessesUnwindsParked(t *testing.T) {
	eng := NewEngine()
	deferred := 0
	var sig Signal
	for i := 0; i < 4; i++ {
		eng.Spawn("waiter", func(p *Process) {
			defer func() { deferred++ }()
			sig.Wait(p) // parks forever; nothing broadcasts
		})
	}
	eng.Spawn("sleeper", func(p *Process) {
		defer func() { deferred++ }()
		for {
			p.Delay(100)
		}
	})
	stop := false
	eng.SetCancelCheck(1, func() bool { return stop })
	eng.Schedule(500, func() { stop = true })
	eng.Run()
	if eng.Live() == 0 {
		t.Fatal("test setup: expected live processes at cancellation")
	}
	eng.KillProcesses()
	if got := eng.Live(); got != 0 {
		t.Fatalf("Live() = %d after KillProcesses, want 0", got)
	}
	if deferred != 5 {
		t.Fatalf("deferred = %d, want 5 (every body must unwind through its defers)", deferred)
	}
	// A second kill is a no-op.
	eng.KillProcesses()
}

// TestKillProcessesBeforeFirstStep: a process spawned but never stepped
// (its start event still queued) must not run its body when killed.
func TestKillProcessesBeforeFirstStep(t *testing.T) {
	eng := NewEngine()
	ran := false
	eng.Spawn("unstarted", func(p *Process) { ran = true })
	eng.KillProcesses()
	if ran {
		t.Fatal("killed process ran its body")
	}
	if got := eng.Live(); got != 0 {
		t.Fatalf("Live() = %d, want 0", got)
	}
}

// TestProcessPanicPropagatesToRunCaller: a panic inside a process body
// surfaces as a recoverable *ProcessPanic on the engine goroutine,
// carrying the process name and original value, and the remaining
// processes can then be killed cleanly.
func TestProcessPanicPropagatesToRunCaller(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("bystander", func(p *Process) {
		for {
			p.Delay(10)
		}
	})
	eng.Spawn("faulty", func(p *Process) {
		p.Delay(25)
		panic("injected fault")
	})
	var got *ProcessPanic
	func() {
		defer func() {
			r := recover()
			pp, ok := r.(*ProcessPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *ProcessPanic", r, r)
			}
			got = pp
		}()
		eng.Run()
		t.Fatal("Run returned; expected a propagated panic")
	}()
	if got.Proc != "faulty" {
		t.Errorf("ProcessPanic.Proc = %q, want %q", got.Proc, "faulty")
	}
	if got.Value != "injected fault" {
		t.Errorf("ProcessPanic.Value = %v, want injected fault", got.Value)
	}
	if !strings.Contains(got.String(), "faulty") || !strings.Contains(got.String(), "injected fault") {
		t.Errorf("String() = %q, want process name and value", got.String())
	}
	if len(got.Stack) == 0 {
		t.Error("ProcessPanic.Stack is empty")
	}
	eng.KillProcesses()
	if eng.Live() != 0 {
		t.Fatalf("Live() = %d after kill, want 0", eng.Live())
	}
}

// TestRegisterCompaction: spawning far more processes than the registry
// capacity keeps the registry bounded: it holds live processes only.
func TestRegisterCompaction(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 10_000; i++ {
		eng.Spawn("ephemeral", func(p *Process) {})
		eng.Run()
	}
	if len(eng.plist) > 4096 {
		t.Fatalf("process registry grew to %d entries; returned processes are not removed", len(eng.plist))
	}
	if eng.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", eng.Live())
	}
}
