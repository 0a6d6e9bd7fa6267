package core

import (
	"fmt"
	"testing"

	"vmp/internal/cache"
	"vmp/internal/fault"
	"vmp/internal/sim"
	"vmp/internal/vm"
)

// The torture tests stress the consistency protocol with randomized
// multi-processor programs and verify three oracles afterwards:
//
//  1. the protocol invariant watchdog and CheckInvariants (single
//     owner, no stale sharers);
//  2. per-word data integrity: each processor owns a disjoint set of
//     words inside *shared* cache pages (deliberate false sharing), and
//     every word must end holding the last value its owner wrote;
//  3. exact counting under TAS-guarded critical sections.
//
// Every run is deterministic in (seed, config), so failures reproduce.

type tortureConfig struct {
	procs     int
	pageSize  int
	cacheKB   int
	fifoDepth int
	opsPerCPU int
	pages     int         // shared data pages
	aliases   int         // extra virtual aliases onto the shared pages
	faults    *fault.Spec // optional fault-injection plan
}

func runTorture(t *testing.T, seed uint64, tc tortureConfig) *Machine {
	t.Helper()
	cfg := Config{
		Processors: tc.procs,
		Cache:      cache.Geometry(tc.cacheKB<<10, tc.pageSize, 4),
		MemorySize: 8 << 20,
		FIFODepth:  tc.fifoDepth,
		Watchdog:   true,
		Faults:     tc.faults,
		FaultSeed:  seed,
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnsureSpace(1); err != nil {
		t.Fatal(err)
	}

	// Shared data pages, each holding one word per processor.
	base := uint32(0x100000)
	var pageAddrs []uint32
	for i := 0; i < tc.pages; i++ {
		pageAddrs = append(pageAddrs, base+uint32(i)*uint32(tc.pageSize))
	}
	if err := m.Prefault(1, pageAddrs); err != nil {
		t.Fatal(err)
	}

	// Aliases: extra virtual windows onto the first pages. Remapping
	// works at VM-page (4 KB) granularity, so the alias of cache page
	// pageAddrs[i] sits at the same in-VM-page offset inside its own
	// alias VM page.
	aliasBase := uint32(0x400000)
	aliasVA := func(pg int, off uint32) uint32 {
		return aliasBase + uint32(pg)*vm.PageSize + pageAddrs[pg]%vm.PageSize + off
	}
	var aliasOf []uint32 // alias index -> original cache-page VA
	for i := 0; i < tc.aliases && i < tc.pages; i++ {
		src := pageAddrs[i]
		dst := aliasBase + uint32(i)*vm.PageSize
		if err := m.Prefault(1, []uint32{dst}); err != nil {
			t.Fatal(err)
		}
		w, err := m.VM.Translate(1, src, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.VM.Remap(1, dst, vm.NewPTE(w.PTE.Frame(), vm.Present|vm.Writable)); err != nil {
			t.Fatal(err)
		}
		aliasOf = append(aliasOf, src)
	}

	// TAS-protected shared counter.
	lockVA, counterVA := base+uint32(tc.pages)*uint32(tc.pageSize), base+uint32(tc.pages+1)*uint32(tc.pageSize)
	if err := m.Prefault(1, []uint32{lockVA, counterVA}); err != nil {
		t.Fatal(err)
	}

	lastWrite := make([]map[uint32]uint32, tc.procs) // per CPU: word VA -> last value
	critSections := make([]int, tc.procs)
	inCrit := 0

	for i := 0; i < tc.procs; i++ {
		i := i
		lastWrite[i] = make(map[uint32]uint32)
		rnd := sim.NewRand(seed*1000 + uint64(i))
		m.RunProgram(i, func(c *CPU) {
			c.SetASID(1)
			c.Idle(sim.Time(i) * sim.Microsecond)
			for op := 0; op < tc.opsPerCPU; op++ {
				switch rnd.Intn(10) {
				case 0, 1, 2: // write my own word in a random shared page
					pg := rnd.Intn(tc.pages)
					va := pageAddrs[pg] + uint32(i)*4
					// Sometimes use the alias window instead.
					if pg < len(aliasOf) && rnd.Bool(0.3) {
						va = aliasVA(pg, uint32(i)*4)
					}
					v := rnd.Uint64()
					c.Store(va, uint32(v))
					lastWrite[i][pageAddrs[pg]+uint32(i)*4] = uint32(v)
				case 3, 4, 5: // read anyone's word (value unchecked here;
					// cross-CPU reads race by design)
					pg := rnd.Intn(tc.pages)
					w := rnd.Intn(tc.procs)
					_ = c.Load(pageAddrs[pg] + uint32(w)*4)
				case 6: // read via an alias
					if len(aliasOf) > 0 {
						pg := rnd.Intn(len(aliasOf))
						_ = c.Load(aliasVA(pg, uint32(rnd.Intn(tc.procs))*4))
					}
				case 7: // TAS critical section
					for c.TAS(lockVA) != 0 {
						c.Compute(5 + rnd.Intn(20))
					}
					inCrit++
					if inCrit != 1 {
						t.Errorf("mutual exclusion violated (%d inside)", inCrit)
					}
					v := c.Load(counterVA)
					c.Compute(rnd.Intn(40))
					c.Store(counterVA, v+1)
					critSections[i]++
					inCrit--
					c.Store(lockVA, 0)
				case 8: // think or idle
					if rnd.Bool(0.5) {
						c.Compute(rnd.Intn(200))
					} else {
						c.Idle(sim.Time(rnd.Intn(20)) * sim.Microsecond)
					}
				case 9: // kernel-style maintenance: flush or protect a page
					pg := rnd.Intn(tc.pages)
					w, err := m.VM.Translate(1, pageAddrs[pg], false, false)
					if err != nil {
						t.Errorf("translate for flush: %v", err)
						continue
					}
					if rnd.Bool(0.7) {
						c.FlushPage(w.PAddr)
					} else {
						// Briefly protect the page (a mini DMA window);
						// other boards abort against it until released.
						c.ProtectRegion(w.PAddr, tc.pageSize)
						c.Idle(sim.Time(rnd.Intn(10)) * sim.Microsecond)
						c.UnprotectRegion(w.PAddr, tc.pageSize)
					}
				}
			}
		})
	}
	m.Run()

	if v := m.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	_, bs := m.TotalStats()
	if bs.Violations != 0 {
		t.Fatalf("%d protocol violations", bs.Violations)
	}

	// Oracle 2: every word holds its owner's last write.
	for i := 0; i < tc.procs; i++ {
		for va, want := range lastWrite[i] {
			w, err := m.VM.Translate(1, va, false, false)
			if err != nil {
				t.Fatalf("translate %#x: %v", va, err)
			}
			if got := m.Mem.ReadWord(w.PAddr); got != want {
				t.Errorf("cpu %d word %#x = %#x, want %#x (lost update)", i, va, got, want)
			}
		}
	}

	// Oracle 3: the guarded counter is exact.
	total := 0
	for _, n := range critSections {
		total += n
	}
	w, _ := m.VM.Translate(1, counterVA, false, false)
	if got := m.Mem.ReadWord(w.PAddr); got != uint32(total) {
		t.Errorf("guarded counter %d, want %d", got, total)
	}
	return m
}

func TestTortureSmall(t *testing.T) {
	runTorture(t, 1, tortureConfig{
		procs: 2, pageSize: 256, cacheKB: 64, opsPerCPU: 150, pages: 4, aliases: 2,
	})
}

func TestTortureManyProcs(t *testing.T) {
	runTorture(t, 2, tortureConfig{
		procs: 6, pageSize: 256, cacheKB: 64, opsPerCPU: 120, pages: 6, aliases: 2,
	})
}

func TestTortureTinyFIFO(t *testing.T) {
	// A 2-deep FIFO forces overflow recovery under load.
	runTorture(t, 3, tortureConfig{
		procs: 4, pageSize: 256, cacheKB: 64, fifoDepth: 2, opsPerCPU: 150, pages: 8, aliases: 3,
	})
}

func TestTortureTinyCache(t *testing.T) {
	// A 4 KB cache thrashes: constant evictions and write-backs racing
	// the consistency traffic.
	runTorture(t, 4, tortureConfig{
		procs: 3, pageSize: 128, cacheKB: 4, opsPerCPU: 150, pages: 10, aliases: 2,
	})
}

func TestTortureLargePages(t *testing.T) {
	runTorture(t, 5, tortureConfig{
		procs: 4, pageSize: 512, cacheKB: 128, opsPerCPU: 120, pages: 5, aliases: 2,
	})
}

func TestTortureSweepSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	for seed := uint64(10); seed < 22; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runTorture(t, seed, tortureConfig{
				procs:     2 + int(seed%4),
				pageSize:  []int{128, 256, 512}[seed%3],
				cacheKB:   []int{8, 64, 128}[seed%3],
				fifoDepth: []int{0, 2, 8}[seed%3],
				opsPerCPU: 100,
				pages:     3 + int(seed%6),
				aliases:   int(seed % 3),
			})
		})
	}
}
