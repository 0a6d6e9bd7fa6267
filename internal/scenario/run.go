package scenario

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"vmp/internal/core"
	"vmp/internal/isa"
	"vmp/internal/kernel"
	"vmp/internal/sim"
	"vmp/internal/trace"
)

// RunResult is the outcome of one scenario run: the normalized spec
// that produced it, the content fingerprint, the serializable summary,
// and (for callers that want to print detailed tables) the machine
// itself.
type RunResult struct {
	Spec        Spec    `json:"spec"`
	Fingerprint string  `json:"fingerprint"`
	Summary     Summary `json:"summary"`
	// Violations holds everything CheckInvariants reported plus any
	// board-observed protocol violations; a surviving run has none.
	Violations []string `json:"violations,omitempty"`
	// Machine is the simulated machine after the run, for detailed
	// reporting (per-board histograms, phase tables, Perfetto export).
	// It is not serialized.
	Machine *core.Machine `json:"-"`
}

// Summary is the machine-readable result of one run. Every field is a
// pure function of the spec (no wall-clock anywhere), so serial and
// parallel executions of the same spec produce byte-identical
// summaries — the property the sweep engine's determinism tests pin.
type Summary struct {
	SimNs        int64   `json:"sim_ns"`
	Refs         uint64  `json:"refs"`
	Fills        uint64  `json:"fills"`
	MissRatioPct float64 `json:"miss_ratio_pct"`
	BusUtilPct   float64 `json:"bus_util_pct"`
	EventsFired  uint64  `json:"events_fired"`
	WriteBacks   uint64  `json:"write_backs"`
	InvalIn      uint64  `json:"invalidations_in"`
	DowngradesIn uint64  `json:"downgrades_in"`
	Retries      uint64  `json:"retries"`
	Recoveries   uint64  `json:"recoveries"`
	Violations   int     `json:"violations"`
	// Sched reports the kernel scheduler's activity when a SchedSpec was
	// attached: total context switches across boards.
	SchedSwitches int `json:"sched_switches,omitempty"`
	// Digest fingerprints the observability event stream (present only
	// when Obs.Stream retained it): byte-identical runs have equal
	// digests.
	Digest string `json:"digest,omitempty"`
	// FaultCounters / CheckCounters mirror the "fault/..." and
	// "check/..." recorder entries.
	FaultCounters map[string]int64 `json:"fault_counters,omitempty"`
	CheckCounters map[string]int64 `json:"check_counters,omitempty"`
	Boards        []BoardSummary   `json:"boards"`
}

// BoardSummary is one board's results.
type BoardSummary struct {
	Refs         uint64  `json:"refs"`
	MissRatioPct float64 `json:"miss_ratio_pct"`
	Performance  float64 `json:"performance"`
	WriteBacks   uint64  `json:"write_backs"`
	InvalIn      uint64  `json:"invalidations_in"`
	DowngradesIn uint64  `json:"downgrades_in"`
	Retries      uint64  `json:"retries"`
	Recoveries   uint64  `json:"recoveries"`
}

// Run executes one scenario: normalize the spec, build the machine,
// attach the workload (and kernel/scheduler when specified), run to
// completion, check invariants and summarize. It is a pure function of
// the spec: the same spec — equivalently, the same fingerprint —
// always produces a byte-identical event stream and summary, however
// many runs proceed concurrently, because each run owns its engine and
// every stochastic stream is seeded from the spec.
func Run(spec Spec) (*RunResult, error) {
	return RunCtx(context.Background(), spec)
}

// RunCtx is Run with a cancellation context: a cancelled or expired
// context stops the simulation promptly (unwinding its coroutines) and
// returns the context's error. A context that never fires leaves the
// result byte-identical to Run.
func RunCtx(ctx context.Context, spec Spec) (*RunResult, error) {
	return run(ctx, spec, newStreamTable([]Cell{{Spec: spec}}), nil, nil)
}

// PanicError is a simulator fault contained by RunGuarded: the panic
// message, the flight-recorder dump captured at the moment of the
// fault, and the panicking process's stack when the fault originated
// inside a simulated process. It is an error, so guarded callers
// handle faults and ordinary spec rejections through one path while
// still being able to errors.As out the dump.
type PanicError struct {
	// Name is the normalized spec name, "" if the fault predates
	// normalization.
	Name string `json:"name,omitempty"`
	// Fingerprint identifies the spec whose run faulted, "" if the
	// fault predates fingerprinting.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Message is the panic value, rendered.
	Message string `json:"message"`
	// Dump is the flight-recorder dump emitted during the faulting run.
	Dump string `json:"dump,omitempty"`
	// Stack is the panicking goroutine's stack when the fault came from
	// a simulated process body.
	Stack string `json:"stack,omitempty"`
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("scenario %q: simulator fault: %s", e.Name, e.Message)
	}
	return "scenario: simulator fault: " + e.Message
}

// RunGuarded is RunCtx behind a panic-isolating boundary: a simulator
// fault (a livelock hard limit, a protocol assertion) comes back as a
// *PanicError carrying the flight-recorder dump instead of unwinding
// the caller. The fault leaves no goroutines behind — the engine's
// process coroutines are killed before returning — so a long-running
// caller (the vmpd job runner) survives arbitrarily faulty specs.
func RunGuarded(ctx context.Context, spec Spec) (*RunResult, error) {
	return runGuarded(ctx, spec, newStreamTable([]Cell{{Spec: spec}}))
}

// runGuarded is RunGuarded taking its streams from st.
func runGuarded(ctx context.Context, spec Spec, st *streamTable) (res *RunResult, err error) {
	var dump bytes.Buffer
	var rs runState
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if rs.machine != nil {
			rs.machine.Eng.KillProcesses()
		}
		pe := &PanicError{Name: rs.name, Fingerprint: rs.fingerprint, Dump: dump.String()}
		if pp, ok := r.(*sim.ProcessPanic); ok {
			pe.Message = pp.String()
			pe.Stack = string(pp.Stack)
		} else {
			pe.Message = fmt.Sprint(r)
		}
		res, err = nil, pe
	}()
	return run(ctx, spec, st, &dump, &rs)
}

// runState lets run report partial progress back to RunGuarded's
// recover boundary, which cannot see run's locals after a panic.
type runState struct {
	name        string
	fingerprint string
	machine     *core.Machine
}

// run is the shared scenario executor. It takes the boards' streams
// from st, which must have counted spec. dumpTo, when non-nil,
// overrides the flight-recorder dump destination (default stderr); rs,
// when non-nil, receives progress markers for the guarded recover path.
func run(ctx context.Context, spec Spec, st *streamTable, dumpTo io.Writer, rs *runState) (*RunResult, error) {
	s, err := normalized(spec)
	if err != nil {
		return nil, err
	}
	fp, err := s.Fingerprint()
	if err != nil {
		return nil, err
	}
	if rs != nil {
		rs.name, rs.fingerprint = s.Name, fp
	}
	// The streams are taken before anything else can fail, so that the
	// run takes every entry st counted for it.
	var all [][]kernel.Task
	if s.Workload.traceDriven() {
		if all, err = st.boardTasks(&s); err != nil {
			return nil, err
		}
	}
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	if dumpTo != nil {
		cfg.Obs.DumpTo = dumpTo
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if rs != nil {
		rs.machine = m
	}

	var asmErrs []error
	var sched []kernel.SchedStats
	switch s.Workload.Kind {
	case WorkloadNone:
	case WorkloadAsm:
		if err := attachAsm(m, &s, &asmErrs); err != nil {
			m.Eng.KillProcesses()
			return nil, err
		}
	default:
		sched, err = attachTraces(m, &s, all)
		if err != nil {
			m.Eng.KillProcesses()
			return nil, err
		}
	}

	if _, err := m.RunCtx(ctx); err != nil {
		return nil, err
	}
	for _, e := range asmErrs {
		if e != nil {
			return nil, fmt.Errorf("scenario %q: asm workload: %w", s.Name, e)
		}
	}

	res := &RunResult{Spec: s, Fingerprint: fp, Machine: m}
	res.Violations = m.CheckInvariants()
	res.Summary = summarize(m, sched)
	res.Summary.Violations += len(res.Violations)
	return res, nil
}

// attachTraces attaches a trace-driven CPU (or, with a scheduler spec,
// a kernel round-robin scheduler over per-task slices) to every board,
// all[i] being board i's tasks. It returns per-board scheduler stats
// sinks when scheduling is on. Prefault and attach run serially in
// board order, so frames are allocated in the same order whatever the
// host's parallelism.
func attachTraces(m *core.Machine, s *Spec, all [][]kernel.Task) ([]kernel.SchedStats, error) {
	var k *kernel.Kernel
	var pol kernel.SchedPolicy
	tasksPer := s.tasksPer()
	if ks := s.Kernel; ks != nil {
		var err error
		k, err = kernel.New(m, ks.UncachedPages)
		if err != nil {
			return nil, err
		}
		if ks.Sched != nil {
			pol = kernel.SchedPolicy{
				Quantum:       ks.Sched.quantum(),
				SwitchInstr:   ks.Sched.SwitchInstr,
				FlushOnSwitch: ks.Sched.FlushOnSwitch,
			}
		}
	}

	stats := make([]kernel.SchedStats, len(m.Boards))
	for i, tasks := range all {
		for _, t := range tasks {
			if !s.Workload.NoPrefault {
				if err := m.PrefaultTrace(t.Refs); err != nil {
					return nil, err
				}
			} else if err := m.EnsureSpace(t.ASID); err != nil {
				return nil, err
			}
		}
		if tasksPer > 0 {
			k.Schedule(i, tasks, pol, func(st kernel.SchedStats) { stats[i] = st })
			continue
		}
		m.RunTrace(i, trace.NewSliceSource(tasks[0].Refs))
	}
	if tasksPer > 0 {
		return stats, nil
	}
	return nil, nil
}

// attachAsm assembles the workload program once and executes it on
// every board through the full cache/miss-handler path, each board in
// its own address space.
func attachAsm(m *core.Machine, s *Spec, errs *[]error) error {
	prog, err := isa.Assemble(s.Workload.Asm)
	if err != nil {
		return err
	}
	*errs = make([]error, len(m.Boards))
	for i := range m.Boards {
		i := i
		cfg := isa.RunConfig{Base: s.Workload.AsmBase}
		if s.Workload.Refs > 0 {
			cfg.MaxSteps = uint64(s.Workload.Refs)
		}
		if err := isa.Run(m, i, uint8(i+1), prog, cfg, func(_ isa.Result, err error) {
			(*errs)[i] = err
		}); err != nil {
			return err
		}
	}
	return nil
}

// summarize collects the serializable run summary from a finished
// machine.
func summarize(m *core.Machine, sched []kernel.SchedStats) Summary {
	cs, bs := m.TotalStats()
	sum := Summary{
		SimNs:        int64(m.Eng.Now()),
		Refs:         bs.Refs,
		Fills:        cs.Fills,
		EventsFired:  m.Eng.Metrics().EventsFired,
		WriteBacks:   bs.WriteBacks,
		InvalIn:      bs.InvalidationsIn,
		DowngradesIn: bs.DowngradesIn,
		Retries:      bs.Retries,
		Recoveries:   bs.Recoveries,
		Violations:   int(bs.Violations),
	}
	if bs.Refs > 0 {
		sum.MissRatioPct = 100 * float64(cs.Fills) / float64(bs.Refs)
	}
	sum.BusUtilPct = 100 * m.Bus.Utilization()
	for _, st := range sched {
		sum.SchedSwitches += st.Switches
	}
	if sink := m.Sink(); sink.Stream() != nil {
		sum.Digest = fmt.Sprintf("%016x", sink.Digest())
	}
	sum.FaultCounters = m.Eng.Recorder().Group("fault/")
	sum.CheckCounters = m.Eng.Recorder().Group("check/")
	for i, b := range m.Boards {
		bcs := b.Cache.Stats()
		bbs := b.Stats()
		board := BoardSummary{
			Refs:         bbs.Refs,
			Performance:  m.Performance(i),
			WriteBacks:   bbs.WriteBacks,
			InvalIn:      bbs.InvalidationsIn,
			DowngradesIn: bbs.DowngradesIn,
			Retries:      bbs.Retries,
			Recoveries:   bbs.Recoveries,
		}
		if bbs.Refs > 0 {
			board.MissRatioPct = 100 * float64(bcs.Fills) / float64(bbs.Refs)
		}
		sum.Boards = append(sum.Boards, board)
	}
	return sum
}

// SimTime returns the summary's simulated time.
func (s Summary) SimTime() sim.Time { return sim.Time(s.SimNs) }
