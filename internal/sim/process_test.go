package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestProcessDelayAdvancesTime(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("p", func(p *Process) {
		p.Delay(100)
		at = append(at, p.Now())
		p.Delay(50)
		at = append(at, p.Now())
	})
	e.Run()
	if len(at) != 2 || at[0] != 100 || at[1] != 150 {
		t.Fatalf("delays observed at %v, want [100 150]", at)
	}
	if e.Live() != 0 {
		t.Errorf("%d live processes after Run, want 0", e.Live())
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for _, cfg := range []struct {
			name string
			step Time
		}{{"a", 30}, {"b", 20}, {"c", 50}} {
			cfg := cfg
			e.Spawn(cfg.name, func(p *Process) {
				for i := 0; i < 3; i++ {
					p.Delay(cfg.step)
					log = append(log, cfg.name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	want := []string{"b", "a", "b", "c", "a", "b", "a", "c", "c"}
	if len(first) != len(want) {
		t.Fatalf("got %v", first)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic run %d: %v vs %v", trial, again, first)
			}
		}
	}
}

func TestSignalBroadcastWakesAllInOrder(t *testing.T) {
	e := NewEngine()
	var s Signal
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Process) {
			s.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Spawn("waker", func(p *Process) {
		p.Delay(10)
		if s.Waiting() != 3 {
			t.Errorf("waiting %d, want 3", s.Waiting())
		}
		s.Broadcast()
	})
	e.Run()
	if len(woke) != 3 || woke[0] != "w1" || woke[1] != "w2" || woke[2] != "w3" {
		t.Errorf("wake order %v", woke)
	}
	if e.Live() != 0 {
		t.Errorf("leaked %d processes", e.Live())
	}
}

func TestSignalPulseWakesOne(t *testing.T) {
	e := NewEngine()
	var s Signal
	woke := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Process) {
			s.Wait(p)
			woke++
		})
	}
	e.Spawn("pulser", func(p *Process) {
		p.Delay(5)
		if !s.Pulse() {
			t.Error("Pulse found no waiter")
		}
	})
	e.Run()
	if woke != 1 {
		t.Errorf("woke %d, want 1", woke)
	}
	if e.Live() != 2 {
		t.Errorf("live %d, want 2 still blocked", e.Live())
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(2)
	inside, peak := 0, 0
	for i := 0; i < 5; i++ {
		e.Spawn("worker", func(p *Process) {
			sem.Acquire(p)
			inside++
			if inside > peak {
				peak = inside
			}
			p.Delay(100)
			inside--
			sem.Release()
		})
	}
	e.Run()
	if peak != 2 {
		t.Errorf("peak concurrency %d, want 2", peak)
	}
	if e.Live() != 0 {
		t.Errorf("leaked %d processes", e.Live())
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *Process) {
			p.Delay(Time(i)) // stagger arrival: 0,1,2,3
			sem.Acquire(p)
			order = append(order, i)
			p.Delay(100)
			sem.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func TestWakeNotPausedPanics(t *testing.T) {
	e := NewEngine()
	var target *Process
	target = e.Spawn("t", func(p *Process) { p.Delay(1000) })
	e.Spawn("w", func(p *Process) {
		p.Delay(10)
		defer func() {
			if recover() == nil {
				t.Error("Wake of running process did not panic")
			}
		}()
		target.Wake() // target is in Delay, not Pause
	})
	e.Run()
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childRan Time = -1
	e.Spawn("parent", func(p *Process) {
		p.Delay(40)
		e.Spawn("child", func(c *Process) {
			c.Delay(2)
			childRan = c.Now()
		})
		p.Delay(100)
	})
	e.Run()
	if childRan != 42 {
		t.Errorf("child ran at %v, want 42", childRan)
	}
}

func TestWaitTimeoutSignalled(t *testing.T) {
	e := NewEngine()
	var s Signal
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Process) {
		got = s.WaitTimeout(p, 1000)
		at = p.Now()
	})
	e.Spawn("waker", func(p *Process) {
		p.Delay(100)
		s.Broadcast()
	})
	e.Run()
	if !got || at != 100 {
		t.Errorf("signalled=%v at %v, want true at 100", got, at)
	}
	if e.Live() != 0 {
		t.Errorf("leaked %d processes", e.Live())
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	e := NewEngine()
	var s Signal
	var got bool
	var at Time
	e.Spawn("waiter", func(p *Process) {
		got = s.WaitTimeout(p, 500)
		at = p.Now()
	})
	e.Run()
	if got || at != 500 {
		t.Errorf("signalled=%v at %v, want false at 500", got, at)
	}
	if s.Waiting() != 0 {
		t.Error("timed-out waiter left on the signal")
	}
}

func TestWaitTimeoutLateBroadcastHarmless(t *testing.T) {
	// The timeout fires first; a later Broadcast must not touch the
	// process (which by then waits on something else).
	e := NewEngine()
	var s Signal
	order := []string{}
	e.Spawn("waiter", func(p *Process) {
		s.WaitTimeout(p, 100)
		order = append(order, "timeout")
		p.Delay(500)
		order = append(order, "resumed")
	})
	e.Spawn("late", func(p *Process) {
		p.Delay(300)
		s.Broadcast() // waiter no longer registered
		order = append(order, "broadcast")
	})
	e.Run()
	want := []string{"timeout", "broadcast", "resumed"}
	for i, w := range want {
		if i >= len(order) || order[i] != w {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestWaitTimeoutRepeated(t *testing.T) {
	e := NewEngine()
	var s Signal
	hits := 0
	e.Spawn("waiter", func(p *Process) {
		for i := 0; i < 5; i++ {
			if s.WaitTimeout(p, 50) {
				hits++
			}
		}
	})
	e.Spawn("waker", func(p *Process) {
		p.Delay(75) // lands inside the second wait window
		s.Broadcast()
	})
	e.Run()
	if hits != 1 {
		t.Errorf("signalled %d times, want 1", hits)
	}
}

// TestResumeRunsInsideTheEvent resumes a paused process from a raw
// event: the process runs before Resume returns, at the event's time,
// and no event is scheduled for it.
func TestResumeRunsInsideTheEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	proc := e.Spawn("p", func(p *Process) {
		p.Pause()
		log = append(log, fmt.Sprintf("resumed@%d", p.Now()))
		p.Pause()
		log = append(log, "resumed again")
	})
	e.Schedule(7, func() {
		before := e.Metrics()
		log = append(log, "event")
		proc.Resume()
		log = append(log, "returned")
		after := e.Metrics()
		if after.EventsScheduled != before.EventsScheduled || e.Pending() != 0 {
			t.Errorf("Resume scheduled %d events, %d pending", after.EventsScheduled-before.EventsScheduled, e.Pending())
		}
		if after.Switches != before.Switches+1 {
			t.Errorf("Resume counted %d switches, want 1", after.Switches-before.Switches)
		}
	})
	e.Run()
	if got, want := strings.Join(log, " "), "event resumed@7 returned"; got != want {
		t.Errorf("log %q, want %q", got, want)
	}
	m := e.Metrics()
	if m.EventsFired != 2 || m.Switches != 2 {
		t.Errorf("EventsFired = %d, Switches = %d, want 2 and 2 (the first step and the resume)", m.EventsFired, m.Switches)
	}
	if !proc.Blocked() || e.Live() != 1 {
		t.Errorf("Blocked() = %v with %d live, want the process paused again", proc.Blocked(), e.Live())
	}
	e.KillProcesses()
}

// TestResumePanicsUnlessPaused resumes a process that has not started
// and one waiting in a Delay: neither is paused.
func TestResumePanicsUnlessPaused(t *testing.T) {
	resume := func(t *testing.T, e *Engine, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not paused") {
				t.Errorf("recovered %v, want a not-paused panic", r)
			}
			e.KillProcesses()
		}()
		fn()
	}
	t.Run("not started", func(t *testing.T) {
		e := NewEngine()
		proc := e.Spawn("p", func(p *Process) { p.Delay(1) })
		resume(t, e, proc.Resume)
	})
	t.Run("in a delay", func(t *testing.T) {
		e := NewEngine()
		proc := e.Spawn("p", func(p *Process) { p.Delay(10) })
		e.Schedule(5, proc.Resume)
		resume(t, e, func() { e.Run() })
	})
}
