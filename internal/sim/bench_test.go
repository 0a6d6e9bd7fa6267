package sim

import "testing"

// BenchmarkEngineSchedule measures raw event throughput: schedule-and-
// fire cycles through the heap, drained 32 events per Run (the deepest
// queue of a 16-board machine) so that Run's wall-clock bookkeeping
// does not dominate. This is the hot path under every simulation in
// the repo; it should be allocation-free in steady state.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, nop)
		if i%32 == 31 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineTicks16 measures the queue in the multibus shape: 16
// CPUs each schedule their next reference one tick ahead, through the
// tick lane, and about every 30th reference is a miss whose irregular
// delay goes through the heap. One op is one fired event.
func BenchmarkEngineTicks16(b *testing.B) {
	const tick = 50
	e := NewEngine()
	e.SetTick(tick)
	fired := 0
	for i := 0; i < 16; i++ {
		k := i
		var ref func()
		ref = func() {
			if fired++; fired == b.N {
				e.Stop()
			}
			k++
			d := Time(tick)
			if k%30 == 0 {
				d += 1 + Time(k*7919%1000)
			}
			e.Schedule(d, ref)
		}
		e.Schedule(Time(i), ref)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineScheduleDepth64 measures scheduling against a standing
// queue of 64 events, the typical depth of a multi-board machine.
func BenchmarkEngineScheduleDepth64(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		var reschedule func()
		reschedule = func() { e.Schedule(100, reschedule) }
		e.Schedule(Time(i), reschedule)
	}
	e.RunUntil(1000)
	b.ReportAllocs()
	b.ResetTimer()
	deadline := e.Now()
	for i := 0; i < b.N; i++ {
		deadline += 100
		e.RunUntil(deadline)
	}
}

// BenchmarkProcessRendezvous measures the coroutine handshake: two
// processes alternating through a Signal, the pattern behind every
// bus acquisition and interrupt wait in the machine model.
func BenchmarkProcessRendezvous(b *testing.B) {
	e := NewEngine()
	var ping, pong Signal
	stop := false
	e.Spawn("a", func(p *Process) {
		for !stop {
			ping.Wait(p)
			pong.Pulse()
		}
	})
	e.Spawn("b", func(p *Process) {
		for !stop {
			ping.Pulse()
			if stop {
				return
			}
			pong.Wait(p)
			p.Delay(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	// Each RunUntil step drives one full ping/pong round trip.
	deadline := Time(0)
	for i := 0; i < b.N; i++ {
		deadline += 1
		e.RunUntil(deadline)
	}
	b.StopTimer()
	stop = true
	ping.Broadcast()
	pong.Broadcast()
	e.Run()
}

// BenchmarkProcessDelay measures a single process advancing virtual
// time, the miss-handler inner loop shape.
func BenchmarkProcessDelay(b *testing.B) {
	e := NewEngine()
	done := make(chan struct{})
	n := b.N
	e.Spawn("cpu", func(p *Process) {
		for i := 0; i < n; i++ {
			p.Delay(10)
		}
		close(done)
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	<-done
}

// BenchmarkSemaphoreHandoff measures contended semaphore handoff between
// four processes, the bus-arbitration shape.
func BenchmarkSemaphoreHandoff(b *testing.B) {
	e := NewEngine()
	sem := NewSemaphore(1)
	n := b.N
	for w := 0; w < 4; w++ {
		e.Spawn("w", func(p *Process) {
			for i := 0; i < n/4; i++ {
				sem.Acquire(p)
				p.Delay(1)
				sem.Release()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
