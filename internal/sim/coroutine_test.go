package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// requireGoroutines fails unless runtime.NumGoroutine comes back to
// base. Ended coroutines exit inside stop, so the wait is only a guard
// against unrelated runtime goroutines.
func requireGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, baseline %d", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoroutinesReturnToBaseline: no coroutine outlives a finished
// run, a KillProcesses, or a body panic that Run's caller recovered.
func TestGoroutinesReturnToBaseline(t *testing.T) {
	base := runtime.NumGoroutine()

	// A normal run whose processes spawn short-lived children: each
	// child's coroutine ends when its body returns.
	eng := NewEngine()
	for i := 0; i < 4; i++ {
		eng.Spawn("parent", func(p *Process) {
			for j := 0; j < 3; j++ {
				eng.Spawn("child", func(c *Process) { c.Delay(1) })
				p.Delay(2)
			}
		})
	}
	eng.Run()
	if eng.Live() != 0 {
		t.Fatalf("Live() = %d after Run, want 0", eng.Live())
	}
	requireGoroutines(t, base, "a normal Run")

	// Processes parked forever, then killed.
	eng = NewEngine()
	var sig Signal
	for i := 0; i < 3; i++ {
		eng.Spawn("waiter", func(p *Process) { sig.Wait(p) })
	}
	eng.Spawn("sleeper", func(p *Process) {
		for {
			eng.Spawn("child", func(c *Process) {})
			p.Delay(10)
		}
	})
	eng.RunUntil(100)
	if eng.Live() != 4 {
		t.Fatalf("Live() = %d before the kill, want 4", eng.Live())
	}
	eng.KillProcesses()
	requireGoroutines(t, base, "KillProcesses")

	// A body panic recovered from Run, after children that returned.
	eng = NewEngine()
	eng.Spawn("faulty", func(p *Process) {
		for j := 0; j < 3; j++ {
			eng.Spawn("child", func(c *Process) {})
			p.Delay(1)
		}
		panic("injected fault")
	})
	func() {
		defer func() {
			if _, ok := recover().(*ProcessPanic); !ok {
				t.Fatal("Run did not re-raise the body panic as *ProcessPanic")
			}
		}()
		eng.Run()
	}()
	if eng.Live() != 0 {
		t.Fatalf("Live() = %d after the panic, want 0", eng.Live())
	}
	requireGoroutines(t, base, "a recovered body panic")
}

func panickingBody(p *Process) {
	p.Delay(1)
	panic("fault in panickingBody")
}

// TestProcessPanicStackNamesBody: the stack is captured inside the
// coroutine before unwinding, so it shows the body, not the engine.
func TestProcessPanicStackNamesBody(t *testing.T) {
	eng := NewEngine()
	eng.Spawn("faulty", panickingBody)
	var pp *ProcessPanic
	func() {
		defer func() { pp, _ = recover().(*ProcessPanic) }()
		eng.Run()
	}()
	if pp == nil {
		t.Fatal("no *ProcessPanic reached the Run caller")
	}
	if !strings.Contains(string(pp.Stack), "sim.panickingBody") {
		t.Fatalf("ProcessPanic.Stack does not name the body:\n%s", pp.Stack)
	}
}

// TestKillBeforeFirstStepAfterReturn: a process spawned after another
// body returned, and killed before its first step, never runs its body,
// while the kill unwinds the parked process that spawned it.
// (TestKillProcessesBeforeFirstStep covers a lone unstarted process.)
func TestKillBeforeFirstStepAfterReturn(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	ran := false
	eng.Spawn("driver", func(p *Process) {
		eng.Spawn("short", func(c *Process) {})
		p.Delay(1) // short returns and its coroutine ends
		eng.Spawn("late", func(c *Process) { ran = true })
		eng.Stop()
		p.Delay(1)
	})
	eng.Run()
	if eng.Live() != 2 {
		t.Fatalf("Live() = %d at the stop, want 2 (driver and the unstarted late)", eng.Live())
	}
	eng.KillProcesses()
	if ran {
		t.Fatal("killed process ran its body")
	}
	if eng.Live() != 0 {
		t.Fatalf("Live() = %d after the kill, want 0", eng.Live())
	}
	requireGoroutines(t, base, "killing an unstarted process")
}

// TestDeferredDelayDuringKillReturns: a body whose defer calls Delay or
// Pause while a kill unwinds it gets control straight back, so the
// defer finishes and KillProcesses returns.
func TestDeferredDelayDuringKillReturns(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	var sig Signal
	finished := 0
	eng.Spawn("delayer", func(p *Process) {
		defer func() {
			p.Delay(5)
			finished++
		}()
		sig.Wait(p)
	})
	eng.Spawn("pauser", func(p *Process) {
		defer func() {
			p.Pause()
			finished++
		}()
		p.Delay(1000)
	})
	eng.RunUntil(10)
	eng.KillProcesses()
	if finished != 2 {
		t.Fatalf("%d of 2 deferred calls finished after their Delay/Pause", finished)
	}
	if eng.Live() != 0 {
		t.Fatalf("Live() = %d after the kill, want 0", eng.Live())
	}
	requireGoroutines(t, base, "a kill with deferred Delay and Pause")
}
