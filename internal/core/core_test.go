package core

import (
	"testing"

	"vmp/internal/cache"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/vm"
	"vmp/internal/workload"
)

func testConfig(procs int) Config {
	return Config{
		Processors: procs,
		Cache:      cache.Geometry(64<<10, 256, 4),
		MemorySize: 4 << 20,
	}
}

func newTestMachine(t *testing.T, procs int) *Machine {
	t.Helper()
	m, err := NewMachine(testConfig(procs))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func checkClean(t *testing.T, m *Machine) {
	t.Helper()
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	_, bs := m.TotalStats()
	if bs.Violations != 0 {
		t.Fatalf("%d protocol violations observed", bs.Violations)
	}
}

func TestSingleBoardMissThenHit(t *testing.T) {
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	var missesAfterFirst, missesAfterSecond uint64
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Store(0x1000, 42)
		missesAfterFirst = c.Board().Cache.Stats().Misses
		if got := c.Load(0x1000); got != 42 {
			t.Errorf("Load = %d, want 42", got)
		}
		missesAfterSecond = c.Board().Cache.Stats().Misses
	})
	m.Run()
	if missesAfterFirst == 0 {
		t.Error("first access did not miss")
	}
	if missesAfterSecond != missesAfterFirst {
		t.Error("second access to same page missed")
	}
	checkClean(t, m)
}

func TestWriteTakesOwnership(t *testing.T) {
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Store(0x2000, 7)
		slot, ok := c.Board().Cache.FindVirtual(1, 0x2000)
		if !ok {
			t.Fatal("page not resident")
		}
		f := c.Board().Cache.SlotState(slot).Flags
		if !f.Has(cache.Exclusive) || !f.Has(cache.Modified) {
			t.Errorf("flags after write: %v", f)
		}
	})
	m.Run()
	checkClean(t, m)
}

func TestReadThenWriteUpgrades(t *testing.T) {
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		_ = c.Load(0x3000) // shared fill
		slot, _ := c.Board().Cache.FindVirtual(1, 0x3000)
		if c.Board().Cache.SlotState(slot).Flags.Has(cache.Exclusive) {
			t.Error("read fill took ownership")
		}
		c.Store(0x3000, 1) // assert-ownership upgrade
		if !c.Board().Cache.SlotState(slot).Flags.Has(cache.Exclusive) {
			t.Error("write did not upgrade to exclusive")
		}
	})
	m.Run()
	cs, _ := m.TotalStats()
	if cs.WriteMisses == 0 {
		t.Error("no write-miss recorded for the upgrade")
	}
	checkClean(t, m)
}

func TestTwoBoardsReadSharing(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x4000})
	for i := 0; i < 2; i++ {
		i := i
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			c.Idle(sim.Time(i) * 100) // stagger
			for k := 0; k < 10; k++ {
				_ = c.Load(0x4000)
				c.Compute(5)
			}
		})
	}
	m.Run()
	_, bs := m.TotalStats()
	if bs.InvalidationsIn != 0 {
		t.Errorf("read sharing caused %d invalidations", bs.InvalidationsIn)
	}
	if bs.Retries != 0 {
		t.Errorf("read sharing caused %d retries", bs.Retries)
	}
	checkClean(t, m)
}

func TestWriterInvalidatesReader(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x5000})
	var readerSaw uint32
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		_ = c.Load(0x5000)
		c.Idle(100 * sim.Microsecond) // let the writer take ownership
		readerSaw = c.Load(0x5000)    // must re-fetch the written value
	})
	m.RunProgram(1, func(c *CPU) {
		c.SetASID(1)
		c.Idle(20 * sim.Microsecond)
		c.Store(0x5000, 99)
	})
	m.Run()
	if readerSaw != 99 {
		t.Errorf("reader saw %d, want 99", readerSaw)
	}
	b0 := m.Boards[0].Stats()
	if b0.InvalidationsIn == 0 {
		t.Error("reader was never invalidated")
	}
	checkClean(t, m)
}

func TestReaderDowngradesWriter(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x6000})
	var got uint32
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Store(0x6000, 123) // own the page dirty
		c.Idle(200 * sim.Microsecond)
	})
	m.RunProgram(1, func(c *CPU) {
		c.SetASID(1)
		c.Idle(50 * sim.Microsecond)
		got = c.Load(0x6000) // forces write-back + downgrade
	})
	m.Run()
	if got != 123 {
		t.Errorf("reader got %d, want 123", got)
	}
	b0 := m.Boards[0].Stats()
	if b0.DowngradesIn == 0 {
		t.Error("writer never downgraded")
	}
	if b0.WriteBacks == 0 {
		t.Error("no write-back of the dirty page")
	}
	// The first read must have been aborted and retried.
	if m.Boards[1].Stats().Retries == 0 {
		t.Error("reader's fill was never aborted")
	}
	checkClean(t, m)
}

func TestPingPongOwnershipMigrates(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x7000})
	const rounds = 25
	// Each CPU increments the shared counter; the final value must be
	// exactly 2*rounds if ownership transfer preserves every update.
	for i := 0; i < 2; i++ {
		i := i
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			c.Idle(sim.Time(i) * 3 * sim.Microsecond)
			for k := 0; k < rounds; k++ {
				v := c.Load(0x7000)
				c.Store(0x7000, v+1)
				c.Compute(50)
			}
		})
	}
	m.Run()
	// Read the final value directly from memory via the page tables.
	w, err := m.VM.Translate(1, 0x7000, false, false)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Mem.ReadWord(w.PAddr)
	// Load+Store is not atomic; increments can be lost only through a
	// data race *within* the protocol window, which the interleaved
	// simulated timing makes possible — but each CPU's own updates are
	// ordered, so the counter must be at least rounds and at most
	// 2*rounds, and ownership must have migrated.
	if got < rounds || got > 2*rounds {
		t.Errorf("counter = %d, want within [%d, %d]", got, rounds, 2*rounds)
	}
	_, bs := m.TotalStats()
	if bs.InvalidationsIn == 0 && bs.DowngradesIn == 0 {
		t.Error("no ownership migration happened")
	}
	checkClean(t, m)
}

func TestTASMutualExclusion(t *testing.T) {
	m := newTestMachine(t, 3)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x8000, 0x9000})
	const lockAddr, dataAddr = 0x8000, 0x9000
	const iters = 10
	inCrit := 0
	for i := 0; i < 3; i++ {
		i := i
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			c.Idle(sim.Time(i) * sim.Microsecond)
			for k := 0; k < iters; k++ {
				for c.TAS(lockAddr) != 0 { // spin
					c.Compute(20)
				}
				inCrit++
				if inCrit != 1 {
					t.Errorf("mutual exclusion violated: %d in critical section", inCrit)
				}
				v := c.Load(dataAddr)
				c.Compute(30)
				c.Store(dataAddr, v+1)
				inCrit--
				c.Store(lockAddr, 0) // release
				c.Compute(100)
			}
		})
	}
	m.Run()
	w, _ := m.VM.Translate(1, dataAddr, false, false)
	if got := m.Mem.ReadWord(w.PAddr); got != 3*iters {
		t.Errorf("protected counter = %d, want %d", got, 3*iters)
	}
	checkClean(t, m)
}

func TestAliasSelfConsistency(t *testing.T) {
	// Map two virtual pages to the same physical frame and check the
	// processor "competing against itself" keeps them coherent.
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x10000})
	w, err := m.VM.Translate(1, 0x10000, false, false)
	if err != nil {
		t.Fatal(err)
	}
	// Alias 0x20000 to the same VM frame.
	m.Prefault(1, []uint32{0x20000})
	if _, _, err := m.VM.Remap(1, 0x20000, vm.NewPTE(w.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
		t.Fatal(err)
	}

	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Store(0x10000, 11) // private via VA1
		// Read via the alias: same frame, different cache page tag. The
		// fill must observe our own ownership and resolve it.
		if got := c.Load(0x20000); got != 11 {
			t.Errorf("alias read = %d, want 11", got)
		}
		// Both VAs now coexist as shared copies.
		if !c.Board().Resident(1, 0x10000) || !c.Board().Resident(1, 0x20000) {
			t.Error("alias copies not both resident")
		}
		// Writing via the alias must kill the other copy (private =
		// single copy, even within one cache).
		c.Store(0x20000, 22)
		if c.Board().Resident(1, 0x10000) {
			t.Error("stale alias copy survived a private write")
		}
		if got := c.Load(0x10000); got != 22 {
			t.Errorf("read via VA1 = %d, want 22", got)
		}
	})
	m.Run()
	checkClean(t, m)
}

func TestCrossProcessorAliasing(t *testing.T) {
	// Two ASIDs on two boards alias one frame: consistency must hold
	// across both the alias and the processor boundary.
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.EnsureSpace(2)
	m.Prefault(1, []uint32{0x10000})
	w, _ := m.VM.Translate(1, 0x10000, false, false)
	m.Prefault(2, []uint32{0x30000})
	if _, _, err := m.VM.Remap(2, 0x30000, vm.NewPTE(w.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
		t.Fatal(err)
	}
	var got uint32
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Store(0x10000, 5)
	})
	m.RunProgram(1, func(c *CPU) {
		c.SetASID(2)
		c.Idle(100 * sim.Microsecond)
		got = c.Load(0x30000)
	})
	m.Run()
	if got != 5 {
		t.Errorf("cross-asid alias read %d, want 5", got)
	}
	checkClean(t, m)
}

func TestPageTableMissRecursion(t *testing.T) {
	// Touching pages in many distinct 4MB regions forces fresh L2
	// tables whose cache pages must themselves be filled: the nested
	// miss path.
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		for i := uint32(0); i < 4; i++ {
			c.Store(i*(4<<20)+0x1000, i)
		}
		for i := uint32(0); i < 4; i++ {
			if got := c.Load(i*(4<<20) + 0x1000); got != i {
				t.Errorf("region %d: got %d", i, got)
			}
		}
	})
	m.Run()
	if m.VM.Stats().TableFaults != 4 {
		t.Errorf("table faults = %d, want 4", m.VM.Stats().TableFaults)
	}
	checkClean(t, m)
}

func TestTraceDrivenRun(t *testing.T) {
	m := newTestMachine(t, 1)
	refs, err := workload.Generate(workload.Edit, 3, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	m.EnsureSpace(1)
	m.RunTrace(0, trace.NewSliceSource(refs))
	end := m.Run()
	if end == 0 {
		t.Fatal("no simulated time elapsed")
	}
	b := m.Boards[0].Stats()
	if b.Refs != uint64(len(refs)) {
		t.Errorf("refs = %d, want %d", b.Refs, len(refs))
	}
	perf := m.Performance(0)
	if perf <= 0 || perf >= 1 {
		t.Errorf("performance = %v, want in (0, 1)", perf)
	}
	checkClean(t, m)
}

func TestTraceDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := newTestMachine(t, 2)
		for i := 0; i < 2; i++ {
			refs, _ := workload.Generate(workload.Edit, uint64(i+1), 10_000)
			m.EnsureSpace(1)
			m.RunTrace(i, trace.NewSliceSource(refs))
		}
		return m.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic end time: %v vs %v", a, b)
	}
}

// TestTraceHitsSwitchOnlyForSlowReferences replays one board's trace:
// four writes that miss and take their pages private, then a tail of
// reads and writes that all hit. The driver's tick events serve the
// hits without resuming its process, so a longer tail adds one event
// and one cache hit per reference, and no process switch.
func TestTraceHitsSwitchOnlyForSlowReferences(t *testing.T) {
	type result struct {
		eng   sim.Metrics
		cache cache.Stats
	}
	run := func(tail int) result {
		m := newTestMachine(t, 1)
		refs := make([]trace.Ref, 4+tail)
		for i := range refs {
			kind := trace.Write
			if i >= 4 && i%2 == 0 {
				kind = trace.Read
			}
			refs[i] = trace.Ref{Kind: kind, ASID: 1, VAddr: 0x10000 + uint32(i%4)*256}
		}
		if err := m.PrefaultTrace(refs); err != nil {
			t.Fatal(err)
		}
		m.RunTrace(0, trace.NewSliceSource(refs))
		m.Run()
		checkClean(t, m)
		return result{m.Eng.Metrics(), m.Boards[0].Cache.Stats()}
	}
	short, long := run(10), run(1000)
	if long.cache.Misses != short.cache.Misses || long.cache.Hits-short.cache.Hits != 990 {
		t.Fatalf("990 more tail references: misses %d -> %d, hits %d -> %d; want only 990 more hits",
			short.cache.Misses, long.cache.Misses, short.cache.Hits, long.cache.Hits)
	}
	if long.eng.Switches != short.eng.Switches {
		t.Errorf("process switches: %d with a 10-hit tail, %d with a 1000-hit tail; want equal", short.eng.Switches, long.eng.Switches)
	}
	if d := long.eng.EventsFired - short.eng.EventsFired; d != 990 {
		t.Errorf("990 more hits fired %d more events, want 990", d)
	}
}

// TestPrefaultTraceFirstTouchOrder checks PrefaultTrace against the
// loop it shortcuts, Prefault on every reference in order: both must
// map every page to the same frame. The stream interleaves two address
// spaces, so equal page numbers from both share a slot of the skip
// cache.
func TestPrefaultTraceFirstTouchOrder(t *testing.T) {
	var spaces [2][]trace.Ref
	for i := range spaces {
		r, err := workload.Generate(workload.Edit, uint64(i+1), 20_000)
		if err != nil {
			t.Fatal(err)
		}
		spaces[i] = r
	}
	var refs []trace.Ref
	for i := range spaces[0] {
		for s := range spaces {
			r := spaces[s][i]
			r.ASID = uint8(s + 1)
			refs = append(refs, r)
		}
	}
	fast, plain := newTestMachine(t, 1), newTestMachine(t, 1)
	if err := fast.PrefaultTrace(refs); err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := plain.Prefault(r.ASID, []uint32{r.VAddr}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range refs {
		super := r.VAddr >= vm.KernelBase
		a, errA := fast.VM.Translate(r.ASID, r.VAddr, false, super)
		b, errB := plain.VM.Translate(r.ASID, r.VAddr, false, super)
		if errA != nil || errB != nil || a.PAddr != b.PAddr {
			t.Fatalf("asid %d vaddr %#x: PrefaultTrace maps %#x (%v), in-order Prefault %#x (%v)",
				r.ASID, r.VAddr, a.PAddr, errA, b.PAddr, errB)
		}
	}
}

func TestMultiprocessorSharedTrace(t *testing.T) {
	// Several boards replaying write-sharing traces against one page:
	// heavy contention, but the protocol must stay consistent.
	m := newTestMachine(t, 4)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0xA000})
	streams := workload.PingPong(4, 0xA000, 30)
	for i, s := range streams {
		m.RunTrace(i, trace.NewSliceSource(s))
	}
	m.Run()
	_, bs := m.TotalStats()
	if bs.Retries == 0 {
		t.Error("contended ping-pong caused no aborted transactions")
	}
	checkClean(t, m)
}

func TestFIFOOverflowRecovery(t *testing.T) {
	// A 2-deep FIFO and a storm of invalidations from three writers
	// must trigger the recovery sweep on the reading board, and the
	// system must stay consistent.
	cfg := testConfig(4)
	cfg.FIFODepth = 2
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnsureSpace(1)
	// The reader holds many shared pages; writers then take them over
	// while the reader is stalled in a long miss chain, flooding its
	// FIFO.
	var pages []uint32
	for i := uint32(0); i < 30; i++ {
		pages = append(pages, 0x40000+i*256)
	}
	m.Prefault(1, pages)
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		for _, p := range pages {
			_ = c.Load(p)
		}
		// Long uninterruptible stretch: interrupts pile up.
		c.ComputeUninterruptible(50_000)
		// Resume referencing: recovery must run first.
		for _, p := range pages {
			_ = c.Load(p)
		}
	})
	for w := 1; w <= 3; w++ {
		w := w
		m.RunProgram(w, func(c *CPU) {
			c.SetASID(1)
			// Start well after the reader has loaded everything and
			// entered its long computation, so its FIFO is not being
			// drained.
			c.Idle(5 * sim.Millisecond)
			for i, p := range pages {
				if i%3 == w-1 {
					c.Store(p, uint32(w))
				}
			}
		})
	}
	m.Run()
	if m.Boards[0].Stats().Recoveries == 0 {
		t.Error("FIFO overflow never triggered recovery")
	}
	checkClean(t, m)
}

func TestReadPrivateOnReadHint(t *testing.T) {
	// With the Section 5.4 hint, a read miss in the hinted region takes
	// ownership immediately, so the subsequent write needs no
	// assert-ownership.
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.Boards[0].SetReadPrivateOnRead(func(asid uint8, vaddr uint32) bool {
		return vaddr >= 0x50000 && vaddr < 0x60000
	})
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		_ = c.Load(0x50000)
		before := c.Board().Cache.Stats().WriteMisses
		c.Store(0x50000, 1)
		if got := c.Board().Cache.Stats().WriteMisses; got != before {
			t.Error("write after hinted read still needed ownership negotiation")
		}
		// Outside the region the normal two-step applies.
		_ = c.Load(0x70000)
		before = c.Board().Cache.Stats().WriteMisses
		c.Store(0x70000, 1)
		if got := c.Board().Cache.Stats().WriteMisses; got != before+1 {
			t.Error("unhinted write skipped ownership negotiation")
		}
	})
	m.Run()
	checkClean(t, m)
}

func TestEvictionWriteBack(t *testing.T) {
	// A tiny cache forces dirty evictions; the written value must
	// survive the round trip through main memory.
	cfg := testConfig(1)
	cfg.Cache = cache.Config{PageSize: 256, Rows: 4, Assoc: 1} // 1 KB cache
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnsureSpace(1)
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		// Fill all rows with dirty pages, then wrap around: evictions.
		for i := uint32(0); i < 12; i++ {
			c.Store(0x1000+i*256, 100+i)
		}
		for i := uint32(0); i < 12; i++ {
			if got := c.Load(0x1000 + i*256); got != 100+i {
				t.Errorf("page %d: got %d, want %d", i, got, 100+i)
			}
		}
	})
	m.Run()
	if m.Boards[0].Stats().WriteBacks == 0 {
		t.Error("no write-backs despite dirty evictions")
	}
	checkClean(t, m)
}

func TestNotification(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0xB000})
	w, _ := m.VM.Translate(1, 0xB000, false, false)
	mailbox := w.PAddr

	var notified []uint32
	m.Boards[0].SetNotifyHandler(func(paddr uint32) { notified = append(notified, paddr) })

	m.RunProgram(0, func(c *CPU) {
		c.WatchNotify(mailbox)
		c.Idle(time100())
	})
	m.RunProgram(1, func(c *CPU) {
		c.Idle(10 * sim.Microsecond)
		c.Notify(mailbox)
	})
	m.Run()
	if len(notified) != 1 {
		t.Fatalf("notified %d times", len(notified))
	}
	checkClean(t, m)
}

func time100() sim.Time { return 100 * sim.Microsecond }

func TestUncachedAccess(t *testing.T) {
	m := newTestMachine(t, 2)
	const paddr = 0x3F0000 // raw physical word, outside any mapping
	var got uint32
	m.RunProgram(0, func(c *CPU) {
		c.StoreUncached(paddr, 77)
	})
	m.RunProgram(1, func(c *CPU) {
		c.Idle(10 * sim.Microsecond)
		got = c.LoadUncached(paddr)
	})
	m.Run()
	if got != 77 {
		t.Errorf("uncached read %d, want 77", got)
	}
	cs, _ := m.TotalStats()
	if cs.Fills != 0 {
		t.Error("uncached access filled the cache")
	}
	checkClean(t, m)
}

func TestPerformanceDegradesWithMissRatio(t *testing.T) {
	// A strided trace (every ref a miss) must show far lower
	// performance than a localized one.
	run := func(refs []trace.Ref) float64 {
		m := newTestMachine(t, 1)
		m.EnsureSpace(1)
		m.PrefaultTrace(refs)
		m.RunTrace(0, trace.NewSliceSource(refs))
		m.Run()
		checkClean(t, m)
		return m.Performance(0)
	}
	// Loop over a 2 KB working set: after 8 cold misses everything hits.
	looped := make([]trace.Ref, 5000)
	for i := range looped {
		looped[i] = trace.Ref{Kind: trace.Read, ASID: 1, VAddr: 0x1000 + uint32(i*4%2048)}
	}
	local := run(looped)
	thrash := run(workload.Stride(1, 0x1000, 5000, 256, trace.Read))
	if local < 0.9 {
		t.Errorf("looped performance %v, want > 0.9", local)
	}
	if thrash > 0.05 {
		t.Errorf("all-miss performance %v, want < 0.05", thrash)
	}
	// A once-per-page sequential walk (1.56% miss ratio) sits in
	// between — the Figure 3 regime.
	seq := run(workload.Sequential(1, 0x1000, 5000, trace.Read))
	if seq < 0.3 || seq > 0.8 {
		t.Errorf("sequential performance %v, want mid-range", seq)
	}
}

func TestInvariantCheckerDetectsTrouble(t *testing.T) {
	// Sanity-check the oracle itself: force a fake double-owner event.
	c := newChecker()
	c.acquired(0, 5, psPrivate)
	c.acquired(1, 5, psPrivate)
	if len(c.Violations()) == 0 {
		t.Error("checker missed double ownership")
	}
}

func TestSwapThroughMachine(t *testing.T) {
	// A machine with tiny main memory: the program's working set forces
	// the page-out daemon path (reclaim + cache flush + swap), and every
	// value must survive the round trip through the backing store.
	cfg := testConfig(1)
	cfg.MemorySize = 128 << 10 // 32 VM pages
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnsureSpace(1)
	const pages = 40
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		for i := uint32(0); i < pages; i++ {
			c.Store(0x100000+i*vm.PageSize, 0xcafe0000+i)
		}
		for i := uint32(0); i < pages; i++ {
			if got := c.Load(0x100000 + i*vm.PageSize); got != 0xcafe0000+i {
				t.Errorf("page %d: %#x after swap round trip", i, got)
			}
		}
	})
	m.Run()
	st := m.VM.Stats()
	if st.SwapOuts == 0 || st.SwapIns == 0 {
		t.Fatalf("no swap activity: %+v", st)
	}
	checkClean(t, m)
}

func TestRemapPageConsistency(t *testing.T) {
	// Core-level RemapPage: a second processor caches the page; after
	// the remap its next read must fetch the new frame's content.
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x10000, 0x20000})
	wA, _ := m.VM.Translate(1, 0x10000, false, false)
	wB, _ := m.VM.Translate(1, 0x20000, false, false)
	m.Mem.WriteWord(wA.PAddr, 111)
	m.Mem.WriteWord(wB.PAddr, 222)

	var before, after uint32
	m.RunProgram(1, func(c *CPU) {
		c.SetASID(1)
		before = c.Load(0x10000)
		c.Idle(200 * sim.Microsecond)
		after = c.Load(0x10000)
	})
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.SetSupervisor(true)
		c.Idle(50 * sim.Microsecond)
		if err := c.RemapPage(0x10000, vm.NewPTE(wB.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	m.Run()
	if before != 111 || after != 222 {
		t.Errorf("before=%d after=%d, want 111/222", before, after)
	}
	checkClean(t, m)
}

func TestDestroySpaceFlushEvictsEverywhere(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x1000, 0x2000})
	m.RunProgram(1, func(c *CPU) {
		c.SetASID(1)
		_ = c.Load(0x1000)
		c.Store(0x2000, 5)
		c.Idle(300 * sim.Microsecond)
	})
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Idle(50 * sim.Microsecond)
		if err := c.DestroySpace(1); err != nil {
			t.Errorf("destroy: %v", err)
		}
	})
	m.Run()
	if m.Boards[1].Resident(1, 0x1000) || m.Boards[1].Resident(1, 0x2000) {
		t.Error("destroyed space still cached on board 1")
	}
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestMachinePerformanceZeroBeforeRun(t *testing.T) {
	m := newTestMachine(t, 1)
	if m.Performance(0) != 0 {
		t.Error("performance nonzero before any run")
	}
	if m.FinishTime(0) != 0 {
		t.Error("finish time nonzero before any run")
	}
	cfg := m.Config()
	if cfg.Processors != 1 {
		t.Errorf("config: %+v", cfg)
	}
}

func TestMissLatencyHistogram(t *testing.T) {
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x1000, 0x2000})
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		_ = c.Load(0x1000)
		_ = c.Load(0x2000)
	})
	m.Run()
	h := m.Boards[0].MissLatency()
	if h.Count() < 2 {
		t.Fatalf("histogram count %d", h.Count())
	}
	// Every miss costs at least the handler's software total (~15µs).
	if h.Min() < 13 {
		t.Errorf("min miss latency %vµs implausible", h.Min())
	}
}

func TestFlushCacheCore(t *testing.T) {
	m := newTestMachine(t, 1)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x1000, 0x2000})
	m.RunProgram(0, func(c *CPU) {
		c.SetASID(1)
		c.Store(0x1000, 9)
		_ = c.Load(0x2000)
		c.Sleep(10 * sim.Microsecond)
		c.FlushCache()
		if c.Board().Resident(1, 0x1000) || c.Board().Resident(1, 0x2000) {
			t.Error("pages survived FlushCache")
		}
		if got := c.Load(0x1000); got != 9 {
			t.Errorf("data lost in flush: %d", got)
		}
		// Coverage helpers on the CPU facade.
		if c.ASID() != 1 {
			t.Error("ASID accessor")
		}
		if c.Now() != c.Process().Now() {
			t.Error("Now accessors disagree")
		}
		c.ServiceInterrupts()
	})
	m.Run()
	checkClean(t, m)
}

func TestHandlerTimingTotal(t *testing.T) {
	h := DefaultTiming().Handler
	if got := h.Total(); got != h.TrapEntry+h.VictimSelect+h.BookkeepWB+h.Translate+h.BookkeepRead+h.Epilogue {
		t.Errorf("Total = %v", got)
	}
	// The calibrated software total is the paper's ~15µs.
	if h.Total() != 15*sim.Microsecond {
		t.Errorf("handler software total %v, want 15µs", h.Total())
	}
}

func TestNewMachineErrors(t *testing.T) {
	if _, err := NewMachine(Config{Cache: cache.Config{PageSize: 100, Rows: 16, Assoc: 1}}); err == nil {
		t.Error("bad cache geometry accepted")
	}
	if _, err := NewMachine(Config{MemorySize: 5000}); err == nil {
		t.Error("unaligned memory size accepted")
	}
}

func TestEnsureSpaceIdempotent(t *testing.T) {
	m := newTestMachine(t, 1)
	if err := m.EnsureSpace(3); err != nil {
		t.Fatal(err)
	}
	if err := m.EnsureSpace(3); err != nil {
		t.Errorf("second EnsureSpace: %v", err)
	}
}
