package copier

import (
	"runtime"
	"testing"
	"time"

	"vmp/internal/bus"
	"vmp/internal/sim"
)

func TestRunSynchronous(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		res := c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 256})
		if res.Aborted {
			t.Error("aborted")
		}
		end = p.Now()
	})
	eng.Run()
	eng.KillProcesses()
	want := b.Timing().TransferTime(bus.ReadShared, 256)
	if end != want {
		t.Errorf("Run took %v, want %v", end, want)
	}
	st := c.Stats()
	if st.Transfers != 1 || st.BytesMoved != 256 || st.Aborted != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestOverlapWithCPU(t *testing.T) {
	// The CPU starts a transfer, does bookkeeping that is shorter than
	// the transfer, then waits: total elapsed must equal the transfer
	// time, not the sum.
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	xfer := b.Timing().TransferTime(bus.ReadShared, 512)
	bookkeeping := xfer / 2
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 512})
		p.Delay(bookkeeping)
		c.Wait(p)
		end = p.Now()
	})
	eng.Run()
	eng.KillProcesses()
	if end != xfer {
		t.Errorf("overlapped elapsed %v, want %v", end, xfer)
	}
}

func TestWaitAfterCompletion(t *testing.T) {
	// Bookkeeping longer than the transfer: Wait returns immediately.
	base := runtime.NumGoroutine()
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	xfer := b.Timing().TransferTime(bus.ReadShared, 128)
	var end sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 128})
		p.Delay(2 * xfer)
		c.Wait(p)
		end = p.Now()
	})
	eng.Run()
	if end != 2*xfer {
		t.Errorf("elapsed %v, want %v", end, 2*xfer)
	}
	// The copier's one process stays paused between transfers, however
	// many it has served.
	if eng.Live() != 1 {
		t.Errorf("Live() = %d after one transfer, want 1 (the paused copier)", eng.Live())
	}
	eng.Spawn("cpu", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: uint32(i) * 128, Bytes: 128})
		}
	})
	eng.Run()
	if eng.Live() != 1 {
		t.Errorf("Live() = %d after four transfers, want 1", eng.Live())
	}
	eng.KillProcesses()
	if eng.Live() != 0 {
		t.Errorf("Live() = %d after KillProcesses, want 0", eng.Live())
	}
	requireGoroutines(t, base)
}

// TestStartAfterKillRespawns: a kill ends the copier's process, and the
// next Start spawns a new one that serves the transfer.
func TestStartAfterKillRespawns(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	for run := 0; run < 2; run++ {
		var res bus.Result
		eng.Spawn("cpu", func(p *sim.Process) {
			res = c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 256})
		})
		eng.Run()
		if res.Aborted || eng.Live() != 1 {
			t.Fatalf("run %d: result %+v, Live() = %d; want a completed transfer and 1 paused copier", run, res, eng.Live())
		}
		eng.KillProcesses()
	}
	if st := c.Stats(); st.Transfers != 2 || st.BytesMoved != 512 {
		t.Errorf("stats %+v, want 2 transfers of 256 bytes", st)
	}
	requireGoroutines(t, base)
}

// TestWarmTransferZeroAlloc: once the copier's process exists, a
// Start-Wait round trip wakes it instead of spawning, and allocates
// nothing.
func TestWarmTransferZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	tx := bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 256}
	allocs := -1.0
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Run(p, tx)
		allocs = testing.AllocsPerRun(200, func() {
			c.Start(tx)
			c.Wait(p)
		})
	})
	eng.Run()
	eng.KillProcesses()
	if allocs != 0 {
		t.Fatalf("warm Start-Wait allocates %v times per transfer, want 0", allocs)
	}
}

// requireGoroutines fails unless runtime.NumGoroutine comes back to
// base: a killed coroutine ends inside KillProcesses, so the wait only
// absorbs unrelated runtime goroutines.
func requireGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 128})
		defer func() {
			if recover() == nil {
				t.Error("second Start did not panic")
			}
		}()
		c.Start(bus.Transaction{Op: bus.ReadShared, PAddr: 0, Bytes: 128})
	})
	eng.Run()
	eng.KillProcesses()
}

func TestCopierRequesterStamped(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 3)
	eng.Spawn("cpu", func(p *sim.Process) {
		c.Run(p, bus.Transaction{Op: bus.WriteBack, PAddr: 0, Bytes: 256})
	})
	eng.Run()
	eng.KillProcesses()
	if got := b.BoardBusyTime(3); got == 0 {
		t.Error("transfer not charged to board 3")
	}
}

// The headline bandwidth comparison (Section 2): the block copier should
// reach ~40 MB/s on the bus while a CPU copy loop manages < 5 MB/s.
func TestBandwidthAblation(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng)
	c := New(eng, b, 0)
	const block = 512
	const n = 64 // 32 KB total
	var blockElapsed, cpuElapsed sim.Time
	eng.Spawn("cpu", func(p *sim.Process) {
		start := p.Now()
		for i := 0; i < n; i++ {
			c.Run(p, bus.Transaction{Op: bus.ReadShared, PAddr: uint32(i * block), Bytes: block})
		}
		blockElapsed = p.Now() - start

		start = p.Now()
		for i := 0; i < n; i++ {
			c.CopyByCPU(p, uint32(i*block), block, DefaultCPUCopyTiming())
		}
		cpuElapsed = p.Now() - start
	})
	eng.Run()
	eng.KillProcesses()

	bytes := float64(n * block)
	blockMBps := bytes / blockElapsed.Seconds() / 1e6
	cpuMBps := bytes / cpuElapsed.Seconds() / 1e6
	if blockMBps < 30 || blockMBps > 45 {
		t.Errorf("block copier bandwidth %.1f MB/s, want ~40", blockMBps)
	}
	if cpuMBps > 5.5 {
		t.Errorf("CPU copy loop bandwidth %.1f MB/s, want < 5.5", cpuMBps)
	}
	if blockMBps < 6*cpuMBps {
		t.Errorf("block copier only %.1fx faster than CPU loop", blockMBps/cpuMBps)
	}
}
