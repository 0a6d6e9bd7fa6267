package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"vmp/internal/scenario"
)

// simShape is the machine and reference stream of one simulation run;
// the seed is supplied per run.
type simShape struct {
	Boards, CacheKB, Buses, Refs int
	Profile                      string
	ShareKernel                  bool
}

// spec returns the scenario for one run of the shape. Caches start
// empty and pages are prefaulted, as scenario.Run does by default.
func (s simShape) spec(name string, seed uint64) scenario.Spec {
	sp := scenario.Spec{
		Name: name,
		Seed: seed,
		Machine: scenario.MachineSpec{
			Processors: s.Boards,
			CacheSize:  s.CacheKB << 10,
			PageSize:   256,
			Assoc:      4,
		},
		Workload: scenario.WorkloadSpec{
			Kind:        scenario.WorkloadProfile,
			Profile:     s.Profile,
			Refs:        s.Refs,
			ShareKernel: s.ShareKernel,
		},
	}
	if s.Buses > 1 {
		sp.Topology = &scenario.TopologySpec{Buses: s.Buses}
	}
	return sp
}

// workload is one set of inputs the benchmark runs. Sim is the shape of
// every simulation the workload makes. A workload with Grids is vmpd
// traffic instead: each session submits every grid cold and then again
// warm (see daemon.session), and Sim is the shape of one computed cell,
// which the traced run stages.
type workload struct {
	Name, Why string
	Sim       simShape
	Grids     []grid
}

// workloads are the benchmark's inputs, in BENCHMARK.json order. The
// three simulator workloads stress disjoint layers (hit path, miss
// path, hierarchical interconnect); serve-mixed is the only one that
// goes through vmpd's HTTP, store and job layers.
var workloads = []workload{
	{
		Name: "steady-hits",
		Why:  "mostly cache hits on 4 boards: host time goes to process handoff and the hit path, almost none to the bus or miss handler",
		Sim:  simShape{Boards: 4, CacheKB: 128, Refs: 500_000, Profile: "edit"},
	},
	{
		Name: "contended-misses",
		Why:  "small caches and a shared kernel: stresses the miss handler, bus, monitors, copier, aborts and interrupt words",
		Sim:  simShape{Boards: 4, CacheKB: 16, Refs: 200_000, Profile: "compile", ShareKernel: true},
	},
	{
		Name: "multibus",
		Why:  "16 boards on 4 bus segments: the only workload on the hierarchical interconnect and its inter-bus link",
		Sim:  simShape{Boards: 16, CacheKB: 64, Buses: 4, Refs: 80_000, Profile: "compile"},
	},
	{
		Name: "serve-mixed",
		Why:  "vmpd sent the repo's sweep grids as vmpbench -sweep -remote sends them, each cold then warm: job queue, sweep pool, store writes and cached reads",
		// The pagesweep cell page_size=256, profile=edit.
		Sim:   simShape{Boards: 2, CacheKB: 64, Refs: 60_000, Profile: "edit"},
		Grids: loadGrids(),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one invocation's settings.
type options struct {
	Seed uint64
	// Seconds is how long the timed part measures.
	Seconds time.Duration
	// MaxOps, when positive, also ends the timed part after that many
	// operations (runs or sessions); tests use it to stay short.
	MaxOps int
	// WorkDir holds the daemon's temporary stores and the trace output.
	WorkDir string
}

// setupReps is how many fresh set-ups setup_s is the median of. A vmpd
// start takes milliseconds, so serve-mixed takes more of them.
const (
	setupReps      = 5
	serveSetupReps = 25
)

// minTimedRuns keeps a median meaningful when one run or session takes
// longer than the whole measuring time.
const minTimedRuns = 3

// maxOps is MaxOps, or no limit.
func (o options) maxOps() int {
	if o.MaxOps > 0 {
		return o.MaxOps
	}
	return math.MaxInt32
}

// timedDone reports whether a timed loop that started at start and has
// attempted n operations should stop.
func (o options) timedDone(start time.Time, n, min int) bool {
	return n >= o.maxOps() || n >= min && time.Since(start) >= o.Seconds
}

// runSim measures a simulator workload with tracing off: setup_s from
// fresh preparations, one untimed warm-up run, then timed scenario runs
// on seeds Seed+1, Seed+2, ... until the measuring time is spent, each
// checked for correctness and each from a collected heap, so that its
// allocation and peak memory are its own.
func runSim(ctx context.Context, w workload, o options, r *report) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		st, err := prepare(w.Sim.spec(w.Name, o.Seed), nil, 0)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		st.discard()
	}
	r.set("setup_s", median(setups), len(setups))

	check, err := newChecker()
	if err != nil {
		return err
	}
	res, err := scenario.RunCtx(ctx, w.Sim.spec(w.Name, o.Seed))
	r.op(check.run(res, err))

	var rates, allocs, rss []float64
	var ms runtime.MemStats
	start := time.Now()
	for i := 1; !o.timedDone(start, i-1, minTimedRuns); i++ {
		spec := w.Sim.spec(w.Name, o.Seed+uint64(i))
		resetPeakRSS()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		res, err := scenario.RunCtx(ctx, spec)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms)
		// A run that fails its check is counted but not timed.
		if err := check.run(res, err); err != nil {
			r.op(err)
			continue
		}
		r.op(nil)
		rates = append(rates, float64(res.Summary.Refs)/wall)
		allocs = append(allocs, float64(ms.TotalAlloc-before)/(1<<20))
		rss = append(rss, peakRSSMB())
	}
	// A seed with no pinned digest is checked by determinism instead:
	// its rerun must give the identical summary.
	first := w.Sim.spec(w.Name, o.Seed+1)
	if !check.pinned(first) {
		res, err := scenario.RunCtx(ctx, first)
		r.op(check.run(res, err))
	}
	if len(rates) == 0 {
		return fmt.Errorf("%s: no timed run succeeded", w.Name)
	}
	r.set("throughput", median(rates), len(rates))
	r.set("alloc_mb", median(allocs), len(allocs))
	r.set("rss_peak_mb", median(rss), len(rss))
	return nil
}
