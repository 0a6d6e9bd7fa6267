package experiments

import (
	"fmt"

	"vmp/internal/baseline"
	"vmp/internal/cache"
	"vmp/internal/kernel"
	"vmp/internal/sim"
	"vmp/internal/stats"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// AblationClustering measures the Section 5.4 / Section 7 software
// technique of "clustering related data on cache pages": the same
// group-structured object workload with a clustering allocator vs a
// scattering one, across the three page sizes.
func AblationClustering(o Options) (*Result, error) {
	n := 200_000
	if o.Quick {
		n = 50_000
	}
	t := stats.NewTable("Data clustering on cache pages (Section 5.4)",
		"Layout", "Page Size", "Miss Ratio (%)", "Bus KB per 1000 refs")
	type point struct {
		ps        int
		clustered bool
		mr        float64
	}
	var points []point
	for _, ps := range []int{128, 256, 512} {
		for _, clustered := range []bool{false, true} {
			cfg := workload.DefaultClusterConfig(ps, clustered)
			cfg.Seed = o.Seed
			refs := workload.ClusterTrace(cfg, n)
			st := cache.Simulate(cache.Geometry(128<<10, ps, 4), trace.NewSliceSource(refs))
			mr := st.MissRatio()
			// Bus bytes: each fill moves a page; dirty evictions move
			// another. Approximate with fills (write-back fraction is
			// layout-independent here).
			busKB := float64(st.Fills) * float64(ps) / 1024 * 1000 / float64(n)
			layout := "scattered"
			if clustered {
				layout = "clustered"
			}
			t.Add(layout, ps, 100*mr, busKB)
			points = append(points, point{ps, clustered, mr})
		}
	}
	// Headline: the clustering win at 256B.
	var scatter, cluster float64
	for _, p := range points {
		if p.ps == 256 {
			if p.clustered {
				cluster = p.mr
			} else {
				scatter = p.mr
			}
		}
	}
	if cluster > 0 {
		t.Note = fmt.Sprintf("clustering cuts the 256B miss ratio %.1fx", scatter/cluster)
	}
	return &Result{
		ID:    "clustering",
		Title: "clustering related data on cache pages",
		Table: t,
		PaperNote: "paper: \"programming systems need to recognize the importance of clustering " +
			"related data on cache pages\" — large pages reward spatial grouping",
	}, nil
}

// AblationASID measures footnote 1 of the paper: because the cache is
// tagged with <ASID, virtual address>, a context switch is just a write
// of the ASID register; without the tag, the whole (virtually
// addressed) cache would have to be flushed on every switch. The same
// multiprogrammed workload runs both ways.
func AblationASID(o Options) (*Result, error) {
	refsEach := 60_000
	if o.Quick {
		refsEach = 12_000
	}
	run := func(flush bool, quantum sim.Time) (sim.Time, uint64, int, error) {
		m, err := o.newMachine(1, 128<<10)
		if err != nil {
			return 0, 0, 0, err
		}
		k, err := kernel.New(m, 1)
		if err != nil {
			return 0, 0, 0, err
		}
		var tasks []kernel.Task
		for i := 0; i < 3; i++ {
			asid := uint8(i + 1)
			refs, err := workload.Generate(workload.Edit, o.Seed+uint64(i)*7, refsEach)
			if err != nil {
				return 0, 0, 0, err
			}
			for j := range refs {
				refs[j].ASID = asid
			}
			if err := m.PrefaultTrace(refs); err != nil {
				return 0, 0, 0, err
			}
			tasks = append(tasks, kernel.Task{ASID: asid, Refs: trace.Pack(refs)})
		}
		var st kernel.SchedStats
		k.Schedule(0, tasks, kernel.SchedPolicy{
			Quantum: quantum, SwitchInstr: 150, FlushOnSwitch: flush,
		}, func(s kernel.SchedStats) { st = s })
		m.Run()
		if v := m.CheckInvariants(); len(v) != 0 {
			return 0, 0, 0, fmt.Errorf("invariants: %v", v)
		}
		return st.Elapsed, m.Boards[0].Cache.Stats().Fills, st.Switches, nil
	}

	t := stats.NewTable("Context switching: ASID tags vs flush-on-switch (footnote 1)",
		"Quantum", "Policy", "Elapsed (ms)", "Cache Fills", "Switches")
	for _, q := range []sim.Time{500 * sim.Microsecond, 2 * sim.Millisecond} {
		for _, flush := range []bool{false, true} {
			el, fills, sw, err := run(flush, q)
			if err != nil {
				return nil, err
			}
			pol := "ASID tag (no flush)"
			if flush {
				pol = "flush on switch"
			}
			t.Add(q.String(), pol, float64(el)/1e6, fills, sw)
		}
	}
	return &Result{
		ID:    "asid",
		Title: "ASID-tagged cache vs flushing on context switch",
		Table: t,
		PaperNote: "paper footnote 1: \"An address space identifier is included as part of the " +
			"address presented to the cache so that the cache need not be flushed on context switch\"",
	}, nil
}

// AblationPageContention measures the flip side of large cache pages:
// false sharing. Four processors write disjoint words that share one
// page; the page ping-pongs at page granularity. Compared across VMP
// page sizes and against a 16-byte-line snoopy cache.
func AblationPageContention(o Options) (*Result, error) {
	rounds := 150
	if o.Quick {
		rounds = 40
	}
	// Machine shape and swept page sizes come from the experiment's grid.
	g := pageContentionGrid(o)
	procs := g.Base.Machine.Processors
	t := stats.NewTable("False sharing vs page size",
		"Scheme", "Page/Line", "Elapsed (µs)", "Bus KB", "Invalidations+Downgrades")

	for _, ps := range g.IntAxis("machine.page_size") {
		ms := g.Base.Machine
		ms.PageSize = ps
		m, err := o.replay(ms.Config(), workload.FalseSharing(procs, 0x40000, ps, rounds))
		if err != nil {
			return nil, err
		}
		_, bs := m.TotalStats()
		t.Add("VMP", ps, m.Eng.Now().Micros(), float64(m.Bus.Stats().BytesMoved)/1024,
			bs.InvalidationsIn+bs.DowngradesIn)
	}

	// Snoopy write-invalidate with 16-byte lines: the four words still
	// share a line only if within 16 bytes; our pattern spaces them 4
	// bytes apart, so they do — same page/line contention at far lower
	// transfer cost.
	streams := workload.FalseSharing(procs, 0x40000, 16, rounds)
	st := baseline.NewSystem(procs, baseline.DefaultConfig(baseline.WriteInvalidate)).Run(streams)
	t.Add("write-invalidate", 16, st.BusTime.Micros(), float64(st.BusBytes)/1024, st.Invalidations)

	return &Result{
		ID:    "pagecontention",
		Title: "false sharing cost grows with page size",
		Table: t,
		PaperNote: "the abstract's caveat: \"good performance providing data contention is not " +
			"excessive\" — unrelated data sharing a large page is the failure mode",
	}, nil
}

// AblationAssociativity sweeps the prototype's configurable
// associativity ("the number of sets is variable from 1 to 4"): miss
// ratio of the four traces at a fixed 128 KB / 256 B geometry with 1, 2
// and 4 ways.
func AblationAssociativity(o Options) (*Result, error) {
	// Profiles and way counts come from the experiment's grid.
	g := assocGrid(o)
	cacheSize := g.Base.Machine.CacheSize
	pageSize := g.Base.Machine.PageSize
	t := stats.NewTable("Associativity sweep (128 KB cache, 256 B pages)",
		"Trace", "1-way (%)", "2-way (%)", "4-way (%)")
	for _, prof := range g.StringAxis("workload.profile") {
		refs, err := workload.Generate(workload.Profile(prof), o.Seed, g.Base.Workload.Refs)
		if err != nil {
			return nil, err
		}
		row := []interface{}{prof}
		for _, assoc := range g.IntAxis("machine.assoc") {
			st := cache.Simulate(cache.Geometry(cacheSize, pageSize, assoc), trace.NewSliceSource(refs))
			row = append(row, 100*st.MissRatio())
		}
		t.Add(row...)
	}
	return &Result{
		ID:    "assoc",
		Title: "miss ratio vs cache associativity",
		Table: t,
		PaperNote: "the prototype's \"number of sets is variable from 1 to 4\"; the paper's " +
			"simulations use the 4-way configuration",
	}, nil
}
