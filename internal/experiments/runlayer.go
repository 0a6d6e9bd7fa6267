package experiments

import (
	"fmt"
	"time"

	"vmp/internal/core"
	"vmp/internal/obs"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// engineTrack records every engine one experiment run constructs, so
// the run layer can aggregate engine metrics after the runner returns.
// It is run-confined: a fresh tracker is made per runOne call and only
// that experiment's helpers add to it. It holds only the engine added
// last: when the next one is added, and in metrics, the finished engine
// is reduced to an engineRecord and dropped, so its machine can be
// freed. Every runner finishes one machine before building the next;
// the event goldens' exp: pins would catch one that did not.
type engineTrack struct {
	done []engineRecord
	// live is the engine added last, and sink its machine's sink (nil
	// for a bare engine).
	live *sim.Engine
	sink *obs.Sink
	// stream builds every machine with its full event stream retained,
	// and records each sink's digest, so the event goldens can pin each
	// machine's event order. Only that test sets it.
	stream bool
}

// engineRecord is what the tracker keeps of one finished engine.
type engineRecord struct {
	now          sim.Time
	metrics      sim.Metrics
	fault, check map[string]int64 // the "fault/" and "check/" groups
	bare         bool             // built without a machine, so no sink
	// events is the sink's event total, and digest its event digest
	// (recorded only under stream).
	events, digest uint64
}

func (t *engineTrack) add(e *sim.Engine, s *obs.Sink) {
	if t != nil {
		t.finish()
		t.live, t.sink = e, s
	}
}

// finish records the live engine, if there is one, and drops it.
func (t *engineTrack) finish() {
	if t.live == nil {
		return
	}
	rec := t.live.Recorder()
	r := engineRecord{
		now:     t.live.Now(),
		metrics: t.live.Metrics(),
		fault:   rec.Group("fault/"),
		check:   rec.Group("check/"),
		bare:    t.sink == nil,
	}
	if t.sink != nil {
		r.events = t.sink.Total()
		if t.stream {
			r.digest = t.sink.Digest()
		}
	}
	t.done = append(t.done, r)
	t.live, t.sink = nil, nil
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
	t.finish()
	m := Metrics{Wall: wall}
	for _, r := range t.done {
		m.SimTime += r.now
		m.EventsFired += r.metrics.EventsFired
		m.EventsScheduled += r.metrics.EventsScheduled
		if r.metrics.MaxQueueDepth > m.MaxQueueDepth {
			m.MaxQueueDepth = r.metrics.MaxQueueDepth
		}
		m.Engines++
		m.FaultCounters = addGroup(m.FaultCounters, r.fault)
		m.CheckCounters = addGroup(m.CheckCounters, r.check)
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

// replay builds a machine from cfg through machine, replays streams[i]
// on board i and checks invariants. Each stream is prefaulted and
// attached in board order, so frames are allocated in the same order
// on every run.
func (o Options) replay(cfg core.Config, streams [][]trace.Ref) (*core.Machine, error) {
	m, err := o.machine(cfg)
	if err != nil {
		return nil, err
	}
	for i, s := range streams {
		if err := m.PrefaultTrace(s); err != nil {
			return nil, err
		}
		m.RunTrace(i, trace.NewSliceSource(s))
	}
	m.Run()
	if v := m.CheckInvariants(); len(v) != 0 {
		return nil, fmt.Errorf("invariants: %v", v)
	}
	return m, nil
}

// editStreams generates n independent edit streams as a profile
// workload's boards get theirs (seed + 31·i, ASID i+1), with board i's
// kernel region moved up by i<<shift: 24 for the scenario layer's
// 16 MB slices, 21 for topology's 2 MB. The scenario layer keeps its
// own copy of this convention (streamKey.stream) and exports no stream
// API.
func editStreams(seed uint64, n, refs int, shift uint) ([][]trace.Ref, error) {
	streams := make([][]trace.Ref, n)
	for i := range streams {
		s, err := workload.Generate(workload.Edit, seed+uint64(i)*31, refs)
		if err != nil {
			return nil, err
		}
		for j := range s {
			s[j].ASID = uint8(i + 1)
			if s[j].VAddr >= workload.KernelCodeBase {
				s[j].VAddr += uint32(i) << shift
			}
		}
		streams[i] = s
	}
	return streams, nil
}
