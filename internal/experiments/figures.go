package experiments

import (
	"fmt"

	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/queuing"
	"vmp/internal/stats"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// Figure3 regenerates "Processor Performance to Cache Miss Ratio":
// normalized performance as a function of the miss ratio for the three
// page sizes, using the *measured* average miss costs, cross-checked
// with full-machine simulations at controlled miss ratios.
func Figure3(o Options) (*Result, error) {
	avgs, err := averageMissCosts(o)
	if err != nil {
		return nil, err
	}
	timing := core.DefaultTiming()
	refTime := timing.RefTime().Seconds()

	var plot stats.Plot
	plot.Title = "Figure 3: processor performance vs cache miss ratio"
	plot.XLabel = "miss ratio (%)"
	plot.YLabel = "normalized performance"

	t := stats.NewTable("Figure 3 samples", "Page Size", "Miss Ratio (%)", "Performance", "Source")

	ratios := []float64{0, 0.001, 0.0024, 0.005, 0.0075, 0.01, 0.015, 0.02}
	for _, a := range avgs {
		var xs, ys []float64
		for _, m := range ratios {
			perf := 1 / (1 + m*a.elapsed.Seconds()/refTime)
			xs = append(xs, m*100)
			ys = append(ys, perf)
			if m == 0.0024 || m == 0.01 {
				t.Add(a.pageSize, m*100, perf, "model")
			}
		}
		plot.Add(fmt.Sprintf("%dB (model)", a.pageSize), xs, ys)
	}

	// Simulation cross-check at controlled miss ratios (256-byte pages).
	var sx, sy []float64
	for _, m := range []float64{0.005, 0.01, 0.02} {
		perf, err := measureControlledPerformance(o, m)
		if err != nil {
			return nil, err
		}
		sx = append(sx, m*100)
		sy = append(sy, perf)
		t.Add(256, m*100, perf, "simulated")
	}
	plot.Add("256B (sim)", sx, sy)

	return &Result{
		ID:    "fig3",
		Title: "processor performance vs cache miss ratio",
		Table: t,
		Plot:  &plot,
		PaperNote: "paper: 0.24% miss ratio at 256B gives 87% performance; " +
			"curves fall with page size because bigger pages cost more per miss",
	}, nil
}

// measureControlledPerformance runs a trace engineered to miss at the
// given ratio (a hot page for hits, a conflict ring for guaranteed
// misses) and returns the measured normalized performance.
func measureControlledPerformance(o Options, missRatio float64) (float64, error) {
	cfg := machineSpec(1, 128<<10).Config()
	// A ring of assoc+4 pages mapping to one cache row always misses.
	rowStride := uint32(cfg.Cache.PageSize * cfg.Cache.Rows)
	ringBase := uint32(0x40_0000)
	const ringLen = 8
	hot := uint32(0x1000)

	n := 60_000
	if o.Quick {
		n = 20_000
	}
	period := int(1 / missRatio)
	refs := make([]trace.Ref, 0, n)
	ring := 0
	for i := 0; i < n; i++ {
		if i%period == 0 {
			refs = append(refs, trace.Ref{Kind: trace.Read, ASID: 1, VAddr: ringBase + uint32(ring%ringLen)*rowStride})
			ring++
		} else {
			refs = append(refs, trace.Ref{Kind: trace.Read, ASID: 1, VAddr: hot + uint32(i%64)*4})
		}
	}
	m, err := o.replay(cfg, [][]trace.Ref{refs})
	if err != nil {
		return 0, err
	}
	return m.Performance(0), nil
}

// Figure4 regenerates "Cache Miss Ratio and Cache Size": cold-start
// miss ratios of a 4-way set-associative cache over the four ATUM-like
// traces, for cache sizes 64-256 KB and page sizes 128-512 bytes.
func Figure4(o Options) (*Result, error) {
	// The sweep axes are defined once, in the experiment's grid.
	g := fig4Grid(o)
	profiles := g.StringAxis("workload.profile")
	pageSizes := g.IntAxis("machine.page_size")
	cacheSizes := g.IntAxis("machine.cache_size")

	t := stats.NewTable("Figure 4: cold-start miss ratio (%), 4-way set associative",
		"Trace", "Page Size", "64KB", "128KB", "256KB")

	// avg[pageSize][cacheSizeIdx] accumulates across traces for the plot.
	avg := map[int][]float64{}
	for _, ps := range pageSizes {
		avg[ps] = make([]float64, len(cacheSizes))
	}

	for _, prof := range profiles {
		refs, err := workload.Generate(workload.Profile(prof), o.Seed, g.Base.Workload.Refs)
		if err != nil {
			return nil, err
		}
		for _, ps := range pageSizes {
			row := []interface{}{prof, ps}
			for i, cs := range cacheSizes {
				st := cache.Simulate(cache.Geometry(cs, ps, 4), trace.NewSliceSource(refs))
				mr := 100 * st.MissRatio()
				avg[ps][i] += mr / float64(len(profiles))
				row = append(row, mr)
			}
			t.Add(row...)
		}
	}

	var plot stats.Plot
	plot.Title = "Figure 4: miss ratio vs cache size (mean of four traces)"
	plot.XLabel = "cache size (KB)"
	plot.YLabel = "miss ratio (%)"
	xs := []float64{64, 128, 256}
	for _, ps := range pageSizes {
		plot.Add(fmt.Sprintf("%dB pages", ps), xs, avg[ps])
	}

	return &Result{
		ID:    "fig4",
		Title: "cold-start miss ratio vs cache size (synthetic ATUM-like traces)",
		Table: t,
		Plot:  &plot,
		PaperNote: "paper reports sub-percent miss ratios at 128-256KB (e.g. 0.24% at 128KB/256B) " +
			"from four VAX 8200 ATUM traces; shape: falls with cache size and page size",
	}, nil
}

// Figure5 regenerates "Bus Utilization to Cache Miss Ratio" plus the
// Section 5.3 estimate of how many processors one bus supports.
func Figure5(o Options) (*Result, error) {
	avgs, err := averageMissCosts(o)
	if err != nil {
		return nil, err
	}
	timing := core.DefaultTiming()
	refTime := timing.RefTime()

	var plot stats.Plot
	plot.Title = "Figure 5: single-processor bus utilization vs miss ratio"
	plot.XLabel = "miss ratio (%)"
	plot.YLabel = "bus utilization"

	t := stats.NewTable("Figure 5 samples",
		"Page Size", "Miss Ratio (%)", "Bus Utilization", "Source")

	ratios := []float64{0.001, 0.0024, 0.005, 0.0075, 0.01, 0.015, 0.02}
	for _, a := range avgs {
		var xs, ys []float64
		for _, mr := range ratios {
			util := mr * a.busTime.Seconds() / (refTime.Seconds() + mr*a.elapsed.Seconds())
			xs = append(xs, mr*100)
			ys = append(ys, util)
			if mr == 0.005 || mr == 0.0024 {
				t.Add(a.pageSize, mr*100, util, "model")
			}
		}
		plot.Add(fmt.Sprintf("%dB", a.pageSize), xs, ys)
	}

	// Measured point: a single processor replaying an ATUM-like trace.
	measuredUtil, measuredMR, err := measureTraceUtilization(o)
	if err != nil {
		return nil, err
	}
	t.Add(256, measuredMR*100, measuredUtil, "simulated (edit trace)")
	plot.Add("256B (sim)", []float64{measuredMR * 100}, []float64{measuredUtil})

	// The queuing estimate of processors per bus at the paper's
	// operating point (256B pages, 0.6% miss ratio).
	var a256 avgCost
	for _, a := range avgs {
		if a.pageSize == 256 {
			a256 = a
		}
	}
	base := queuing.FromMissModel(1, refTime, 0.006, a256.elapsed, a256.busTime)
	maxProcs := queuing.MaxProcessors(base, 0.90, 32)
	singleUtil := base.Solve().BusUtilization
	t.Note = fmt.Sprintf(
		"queuing model at 256B/0.6%% miss: single-processor bus utilization %.1f%%; up to %d processors within 10%% degradation",
		100*singleUtil, maxProcs)

	return &Result{
		ID:    "fig5",
		Title: "bus utilization vs miss ratio; processors per bus",
		Table: t,
		Plot:  &plot,
		PaperNote: "paper: at 256B pages and <0.6% miss ratio, single-processor bus utilization " +
			"is under ~10%, supporting up to 5 processors per bus",
	}, nil
}

// measureTraceUtilization runs one trace-driven processor and returns
// its measured bus utilization and fill-based miss ratio.
func measureTraceUtilization(o Options) (util, missRatio float64, err error) {
	streams, err := editStreams(o.Seed, 1, o.traceLen(), 24)
	if err != nil {
		return 0, 0, err
	}
	m, err := o.replay(machineSpec(1, 128<<10).Config(), streams)
	if err != nil {
		return 0, 0, err
	}
	fills := m.Boards[0].Cache.Stats().Fills
	return m.Bus.Utilization(), float64(fills) / float64(len(streams[0])), nil
}
