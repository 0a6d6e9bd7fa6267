package core

import (
	"strings"
	"testing"

	"vmp/internal/cache"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/vm"
)

// mustPanic runs fn and fails unless it panics with a message that
// contains want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

// TestOneDriverPerBoard: a board takes a second driver only once its
// first driver's body has ended, by returning or by being killed. Until
// then the attach panics, so no second process can change the board's
// tables while the first holds a frame record across a bus yield.
func TestOneDriverPerBoard(t *testing.T) {
	m := newTestMachine(t, 2)
	m.EnsureSpace(1)
	m.Prefault(1, []uint32{0x10000})
	load := func(c *CPU) {
		c.SetASID(1)
		c.Load(0x10000)
	}
	m.RunProgram(0, load)
	m.RunTrace(1, trace.NewSliceSource(nil)) // another board is free
	mustPanic(t, "core: board 0 already has a driver", func() { m.RunProgram(0, load) })
	mustPanic(t, "core: board 0 already has a driver", func() { m.RunTrace(0, trace.NewSliceSource(nil)) })
	m.Run()
	// Both drivers have finished: their boards take new ones, as the
	// core/trace-hit micro's second attach does.
	m.RunProgram(0, load)
	var never sim.Signal
	m.RunProgram(1, func(c *CPU) { never.Wait(c.Process()) })
	m.Run()
	// The run ended with board 1's driver still waiting, and its kill
	// cleared the mark.
	m.RunTrace(1, trace.NewSliceSource(nil))
	mustPanic(t, "core: board 1 already has a driver", func() { m.RunTrace(1, trace.NewSliceSource(nil)) })
	m.Eng.KillProcesses()
	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

// TestRecordsRecycled: a warm board's miss path allocates nothing.
// Each cycle, board 0 fills a page of a stream four times its cache
// and evicts another; writes a page it holds shared (an upgrade);
// takes a page board 1 holds private (a release there); writes through
// two virtual names of one frame and reads through two names of
// another (rlt's private move and shared add; an own-alias release and
// a second shared slot elsewhere). Board 1 then reads the upgraded
// page (board 0 downgrades), writes the page board 0 took (board 0
// releases it) and writes the aliased shared page (board 0
// invalidates both slots). Once every stream page has been touched,
// the records detachSlot retires serve every later fill.
func TestRecordsRecycled(t *testing.T) {
	const (
		period = sim.Millisecond
		stream = 0x100000 // 4×Slots cache pages
		x      = 0x200000 + 1*256
		y      = 0x210000 + 2*256
		s1     = 0x220000 + 3*256
		s2     = 0x230000 + 3*256 // maps s1's frame
		t1     = 0x240000 + 5*256
		t2     = 0x250000 + 5*256 // maps t1's frame
	)
	for _, proto := range []string{"vmp2", "vmp3", "rlt"} {
		t.Run(proto, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.Cache = cache.Geometry(16<<10, 256, 4)
			cfg.Protocol = proto
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pages := 4 * cfg.Cache.Slots()
			var vas []uint32
			for i := 0; i < pages; i++ {
				vas = append(vas, stream+uint32(i*256))
			}
			if err := m.Prefault(1, append(vas, x, y, s1, s2, t1, t2)); err != nil {
				t.Fatal(err)
			}
			for _, a := range [][2]uint32{{s1, s2}, {t1, t2}} {
				w, err := m.VM.Translate(1, a[0], false, false)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.VM.Remap(1, a[1], vm.NewPTE(w.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
					t.Fatal(err)
				}
			}
			// idle waits to the instant until, servicing interrupt
			// words.
			idle := func(c *CPU, until sim.Time) {
				if c.Now() > until {
					t.Errorf("board %d overran its half cycle: at %v, due by %v", c.Board().ID, c.Now(), until)
				}
				c.Idle(until - c.Now())
			}
			m.RunProgram(0, func(c *CPU) {
				c.SetASID(1)
				for n := 0; ; n++ {
					start := sim.Time(n) * period
					c.Load(vas[n%pages])
					c.Store(x, 1)
					c.Store(y, 1)
					c.Store(s1, 1)
					c.Store(s2, 1)
					c.Load(t1)
					c.Load(t2)
					idle(c, start+period)
				}
			})
			m.RunProgram(1, func(c *CPU) {
				c.SetASID(1)
				for n := 0; ; n++ {
					idle(c, sim.Time(n)*period+period/2)
					c.Load(x)
					c.Store(y, 2)
					c.Store(t1, 2)
				}
			})
			deadline := sim.Time(0)
			cycle := func() {
				deadline += period
				m.Eng.RunUntil(deadline)
			}
			for i := 0; i < pages+pages/4; i++ {
				cycle()
			}
			b0 := m.Boards[0]
			cs, bs := b0.Cache.Stats(), b0.Stats()
			const runs = 40
			allocs := testing.AllocsPerRun(runs, cycle)
			cs2, bs2 := b0.Cache.Stats(), b0.Stats()
			m.Eng.KillProcesses()
			if allocs != 0 {
				t.Errorf("%v allocations per cycle, want 0", allocs)
			}
			// AllocsPerRun makes one more call than runs.
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"fills", cs2.Fills - cs.Fills, 2 * (runs + 1)},
				{"write misses", cs2.WriteMisses - cs.WriteMisses, runs + 1},
				{"downgrades", bs2.DowngradesIn - bs.DowngradesIn, runs + 1},
				{"invalidations and releases", bs2.InvalidationsIn - bs.InvalidationsIn, 2 * (runs + 1)},
			} {
				if c.got < c.want {
					t.Errorf("board 0 made %d %s in %d cycles, want at least %d", c.got, c.what, runs+1, c.want)
				}
			}
			if syn := bs2.SynonymFills - bs.SynonymFills; proto == "rlt" && syn < 2*(runs+1) {
				t.Errorf("board 0 attached %d synonyms in %d cycles, want at least %d", syn, runs+1, 2*(runs+1))
			}
			if v := m.CheckInvariants(); len(v) != 0 {
				t.Errorf("invariant violations: %v", v)
			}
		})
	}
}

// TestIdleAllocatesNothing: a processor idling in a loop allocates
// nothing once warm. Each Idle waits on the board's interrupt signal
// with a timeout, and the process reuses its timeout records.
func TestIdleAllocatesNothing(t *testing.T) {
	const period = 10 * sim.Microsecond
	m := newTestMachine(t, 1)
	m.RunProgram(0, func(c *CPU) {
		for {
			c.Idle(period)
		}
	})
	deadline := sim.Time(0)
	idle := func() {
		deadline += period
		m.Eng.RunUntil(deadline)
	}
	idle()
	before := m.Eng.Metrics().EventsFired
	allocs := testing.AllocsPerRun(100, idle)
	fired := m.Eng.Metrics().EventsFired - before
	m.Eng.KillProcesses()
	if allocs != 0 {
		t.Errorf("%v allocations per Idle, want 0", allocs)
	}
	// AllocsPerRun makes one more call than runs; each Idle fires its
	// timeout and the wake.
	if want := uint64(2 * 101); fired != want {
		t.Errorf("%d events in 101 idle periods, want %d", fired, want)
	}
}
