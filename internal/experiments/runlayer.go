package experiments

import (
	"time"

	"vmp/internal/core"
	"vmp/internal/obs"
	"vmp/internal/sim"
)

// engineTrack collects every engine one experiment run constructs, so
// the run layer can aggregate engine metrics after the runner returns.
// It is run-confined: a fresh tracker is made per runOne call and only
// that experiment's helpers append to it.
type engineTrack struct {
	engines []*sim.Engine
	// sinks[k] is the sink of the machine that owns engines[k], or nil
	// for a bare engine.
	sinks []*obs.Sink
	// stream builds every machine with its full event stream retained,
	// so the event goldens can pin each machine's event order. Only
	// that test sets it.
	stream bool
}

func (t *engineTrack) add(e *sim.Engine, s *obs.Sink) {
	if t != nil {
		t.engines = append(t.engines, e)
		t.sinks = append(t.sinks, s)
	}
}

// Metrics aggregates engine activity across every engine one
// experiment run built (sweeps build a machine per configuration).
type Metrics struct {
	Wall            time.Duration // wall-clock time for the whole run
	SimTime         sim.Time      // summed simulated time across engines
	EventsFired     uint64
	EventsScheduled uint64
	MaxQueueDepth   int // high-water event-queue depth over all engines
	Engines         int // engines (machines) the run constructed

	// FaultCounters and CheckCounters sum the fault-injection and
	// invariant-watchdog counters ("fault/..." and "check/..." in each
	// engine's recorder) across every machine the run built, so
	// `vmpbench -json` can report what the fault layer actually did and
	// what the watchdog saw. Nil when no such counters were registered.
	FaultCounters map[string]int64
	CheckCounters map[string]int64
}

func (t *engineTrack) metrics(wall time.Duration) Metrics {
	m := Metrics{Wall: wall}
	for _, e := range t.engines {
		em := e.Metrics()
		m.SimTime += e.Now()
		m.EventsFired += em.EventsFired
		m.EventsScheduled += em.EventsScheduled
		if em.MaxQueueDepth > m.MaxQueueDepth {
			m.MaxQueueDepth = em.MaxQueueDepth
		}
		m.Engines++
		m.FaultCounters = addGroup(m.FaultCounters, e.Recorder().Group("fault/"))
		m.CheckCounters = addGroup(m.CheckCounters, e.Recorder().Group("check/"))
	}
	return m
}

// addGroup adds each counter of g into sum, which is made on first use.
func addGroup(sum, g map[string]int64) map[string]int64 {
	for name, v := range g {
		if sum == nil {
			sum = make(map[string]int64)
		}
		sum[name] += v
	}
	return sum
}

// SimNsPerWallMs reports simulated nanoseconds advanced per wall-clock
// millisecond — the run layer's headline throughput figure.
func (m Metrics) SimNsPerWallMs() float64 {
	ms := float64(m.Wall) / float64(time.Millisecond)
	if ms <= 0 {
		return 0
	}
	return float64(m.SimTime) / ms
}

// engine builds a bare simulation engine, registered with the run's
// tracker. Experiments that need an engine without a full machine
// (e.g. the copier ablation) must use this instead of sim.NewEngine so
// their activity shows up in the run metrics.
func (o Options) engine() *sim.Engine {
	eng := sim.NewEngine()
	o.track.add(eng, nil)
	return eng
}

// machine builds a core.Machine from an explicit configuration,
// registered with the run's tracker. The run-level fault plan and
// watchdog setting apply to every machine whose config does not choose
// its own, so `vmpbench -faults ...` stresses each experiment's
// machines uniformly.
func (o Options) machine(cfg core.Config) (*core.Machine, error) {
	if cfg.Faults == nil && o.Faults != nil && o.Faults.Enabled() {
		cfg.Faults = o.Faults
		cfg.FaultSeed = o.Seed
	}
	cfg.Watchdog = cfg.Watchdog || o.Check
	if o.track != nil && o.track.stream {
		var oc obs.Config
		if cfg.Obs != nil {
			oc = *cfg.Obs
		}
		oc.Stream = true
		cfg.Obs = &oc
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	o.track.add(m.Eng, m.Sink())
	return m, nil
}

// newMachine builds the experiments' standard machine shape: procs
// processors, a cacheSize-byte cache of 256-byte pages, 4-way, and 8 MB
// of main memory. The shape is defined once, as a scenario.MachineSpec
// (scenarios.go), so the declarative grids and the imperative runners
// agree on it.
func (o Options) newMachine(procs, cacheSize int) (*core.Machine, error) {
	return o.machine(machineSpec(procs, cacheSize).Config())
}
