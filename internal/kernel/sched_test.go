package kernel

import (
	"testing"

	"vmp/internal/core"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/vm"
	"vmp/internal/workload"
)

func schedTasks(t *testing.T, m *core.Machine, n int, refsEach int) []Task {
	t.Helper()
	var tasks []Task
	for i := 0; i < n; i++ {
		asid := uint8(i + 1)
		refs, err := workload.Generate(workload.Edit, uint64(i)*7+3, refsEach)
		if err != nil {
			t.Fatal(err)
		}
		for j := range refs {
			refs[j].ASID = asid
		}
		if err := m.PrefaultTrace(refs); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, Task{ASID: asid, Refs: trace.Pack(refs)})
	}
	return tasks
}

func TestSchedulerRunsAllTasks(t *testing.T) {
	m, k := newMachine(t, 1)
	tasks := schedTasks(t, m, 3, 5000)
	var st SchedStats
	k.Schedule(0, tasks, SchedPolicy{Quantum: 500 * sim.Microsecond, SwitchInstr: 150}, func(s SchedStats) { st = s })
	m.Run()
	checkClean(t, m)
	if st.Refs != 15000 {
		t.Errorf("refs %d, want 15000", st.Refs)
	}
	if st.Switches < 3 {
		t.Errorf("switches %d, want >= 3 (timeslicing)", st.Switches)
	}
	if st.Elapsed == 0 {
		t.Error("no elapsed time")
	}
}

func TestSchedulerASIDAvoidsFlush(t *testing.T) {
	// The same multiprogrammed workload with and without cache flushing
	// on context switch: the ASID-tagged cache must miss less and
	// finish sooner — the point of footnote 1.
	run := func(flush bool) (sim.Time, uint64) {
		m, k := newMachine(t, 1)
		tasks := schedTasks(t, m, 3, 8000)
		var st SchedStats
		k.Schedule(0, tasks, SchedPolicy{
			Quantum: 300 * sim.Microsecond, SwitchInstr: 150, FlushOnSwitch: flush,
		}, func(s SchedStats) { st = s })
		m.Run()
		checkClean(t, m)
		return st.Elapsed, m.Boards[0].Cache.Stats().Fills
	}
	asidTime, asidFills := run(false)
	flushTime, flushFills := run(true)
	if asidFills >= flushFills {
		t.Errorf("ASID tagging filled %d >= flush-on-switch %d", asidFills, flushFills)
	}
	if asidTime >= flushTime {
		t.Errorf("ASID run (%v) not faster than flushing run (%v)", asidTime, flushTime)
	}
}

func TestSchedulerSingleTaskNoSwitchChurn(t *testing.T) {
	m, k := newMachine(t, 1)
	tasks := schedTasks(t, m, 1, 3000)
	var st SchedStats
	k.Schedule(0, tasks, DefaultSchedPolicy(), func(s SchedStats) { st = s })
	m.Run()
	if st.Switches != 1 {
		t.Errorf("switches %d, want exactly 1 (initial dispatch)", st.Switches)
	}
}

func TestPageOutDaemonFlushesAndAges(t *testing.T) {
	m, k := newMachine(t, 2)
	m.EnsureSpace(1)
	pages := []uint32{0x10000, 0x11000, 0x12000} // distinct VM pages
	m.Prefault(1, pages)

	// CPU 1 touches the pages, then idles; the daemon on CPU 0 flushes
	// them out of the cache and clears reference bits.
	m.RunProgram(1, func(c *core.CPU) {
		c.SetASID(1)
		for _, p := range pages {
			c.Store(p, 7)
		}
		c.Idle(3 * sim.Millisecond)
		// Touching a page again re-faults it into the cache and
		// re-marks Referenced.
		_ = c.Load(pages[0])
	})
	d := k.StartPageOutDaemon(0, 200*sim.Microsecond, 8)
	// Stop the daemon before the re-touch at 3 ms, so the re-marked
	// Referenced bit survives to the end of the run.
	m.Eng.Schedule(2500*sim.Microsecond, d.Stop)
	m.Run()
	checkClean(t, m)

	if d.Flushed == 0 {
		t.Fatal("daemon flushed nothing")
	}
	// The re-touched page is Referenced again; at least one other page
	// stayed aged (cleared and untouched since).
	if !m.VM.Referenced(1, pages[0]) {
		t.Error("re-touched page lost its Referenced bit")
	}
	aged := 0
	for _, p := range pages[1:] {
		if !m.VM.Referenced(1, p) {
			aged++
		}
	}
	if aged == 0 {
		t.Error("no page stayed aged after daemon flush")
	}
	// The flushed pages left CPU 1's cache.
	if m.Boards[1].Resident(1, pages[1]) {
		t.Error("flushed page still resident in the toucher's cache")
	}
}

func TestResidentPagesListsFaults(t *testing.T) {
	m, _ := newMachine(t, 1)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x10000, 0x20000})
	pages := m.VM.ResidentPages()
	if len(pages) != 2 {
		t.Fatalf("resident %d, want 2", len(pages))
	}
	for _, p := range pages {
		if p.ASID != 1 {
			t.Errorf("page asid %d", p.ASID)
		}
	}
	_ = vm.PageSize
}

func TestFlushCacheEmptiesBoard(t *testing.T) {
	m, _ := newMachine(t, 1)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x1000, 0x2000, 0x3000})
	m.RunProgram(0, func(c *core.CPU) {
		c.SetASID(1)
		c.Store(0x1000, 1) // dirty private
		_ = c.Load(0x2000) // shared
		_ = c.Load(0x3000)
		c.FlushCache()
		for _, va := range []uint32{0x1000, 0x2000, 0x3000} {
			if c.Board().Resident(1, va) {
				t.Errorf("page %#x survived FlushCache", va)
			}
		}
		// Data survives in main memory.
		if got := c.Load(0x1000); got != 1 {
			t.Errorf("flushed dirty data lost: %d", got)
		}
	})
	m.Run()
	checkClean(t, m)
	if m.Boards[0].Stats().WriteBacks == 0 {
		t.Error("dirty page not written back by FlushCache")
	}
}
