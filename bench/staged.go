package main

import (
	"context"
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/core"
	"vmp/internal/obs"
	"vmp/internal/scenario"
	"vmp/internal/trace"
	gen "vmp/internal/workload"
)

// staged is one simulation built step by step from the same public
// functions scenario.Run composes (workload.Generate, core.NewMachine
// with an obs sink, PrefaultTrace, RunTrace, RunCtx, CheckInvariants),
// so that each step can be timed on its own. A test proves it gives the
// same counts as scenario.Run.
type staged struct {
	m    *core.Machine
	tr   *tracer
	run  int
	refs int
}

// prepare generates every board's reference stream, builds the machine,
// prefaults the pages and attaches the trace drivers: everything before
// the first simulated event. tr, when non-nil, records a span per step
// under run id run.
func prepare(spec scenario.Spec, tr *tracer, run int) (*staged, error) {
	s, cfg, err := machineConfig(spec)
	if err != nil {
		return nil, err
	}
	refs := make([][]trace.Ref, s.Machine.Processors)
	err = tr.span("workload", "generate", run, func() error {
		for i := range refs {
			r, err := boardRefs(&s, i)
			if err != nil {
				return err
			}
			refs[i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := &staged{tr: tr, run: run}
	err = tr.span("core", "new_machine", run, func() (err error) {
		st.m, err = core.NewMachine(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.span("core", "prefault", run, func() error {
		for _, r := range refs {
			if err := st.m.PrefaultTrace(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		st.m.RunTrace(i, trace.NewSliceSource(r))
		st.refs += len(r)
	}
	return st, nil
}

// machineConfig normalizes spec and returns it with the machine
// configuration scenario.Run builds for it: geometry, topology and an
// obs sink with default settings.
func machineConfig(spec scenario.Spec) (scenario.Spec, core.Config, error) {
	s := spec
	if err := s.Normalize(); err != nil {
		return s, core.Config{}, err
	}
	if s.Workload.Kind != scenario.WorkloadProfile || s.Kernel != nil || s.Faults != "" || s.Check || s.Protocol != "" {
		return s, core.Config{}, fmt.Errorf("staged path covers plain profile workloads only, not %s", s.Name)
	}
	cfg := s.Machine.Config()
	if t := s.Topology; t != nil {
		cfg.Topology = bus.Topology{Buses: t.Buses, BoardsPerBus: t.BoardsPerBus}
	}
	cfg.Obs = &obs.Config{}
	return s, cfg, nil
}

// boardRefs is board i's reference stream as scenario.Run derives it:
// the per-board seed seed+31*i, ASID i+1, and the kernel region moved
// per board unless the boards share it.
func boardRefs(s *scenario.Spec, i int) ([]trace.Ref, error) {
	w := s.Workload
	refs, err := gen.Generate(gen.Profile(w.Profile), s.Seed+uint64(i)*31, w.Refs)
	if err != nil {
		return nil, err
	}
	for j := range refs {
		refs[j].ASID = uint8(i + 1)
		if !w.ShareKernel && refs[j].VAddr >= gen.KernelCodeBase {
			refs[j].VAddr += uint32(i) << 24
		}
	}
	return refs, nil
}

// runAndCheck runs the simulation to completion and checks the
// machine's invariants, one span each.
func (st *staged) runAndCheck(ctx context.Context) error {
	err := st.tr.span("core", "run", st.run, func() error {
		_, err := st.m.RunCtx(ctx)
		return err
	})
	if err != nil {
		return err
	}
	var violations []string
	st.tr.span("core", "check", st.run, func() error {
		violations = st.m.CheckInvariants()
		return nil
	})
	if len(violations) > 0 {
		return fmt.Errorf("run %d: %d invariant violations, first: %s", st.run, len(violations), violations[0])
	}
	return nil
}

// discard unwinds the drivers of a machine that will not be run.
func (st *staged) discard() { st.m.Eng.KillProcesses() }

// counts are one run's per-layer work counts, read from the machine's
// own counters after the run.
type counts struct {
	Events, Refs                    uint64
	Hits, Lookups, Fills            uint64
	Retries, IntrWords              uint64
	BusTx, BusAborts                uint64
	BusUtilPct                      float64
	Crossings, Filtered, FrameWaits uint64
	MonChecks, MonInterrupts        uint64
	CopierTransfers, CopierAborted  uint64
}

func machineCounts(m *core.Machine) counts {
	cs, bs := m.TotalStats()
	c := counts{
		Events:     m.Eng.Metrics().EventsFired,
		Refs:       bs.Refs,
		Hits:       cs.Hits,
		Lookups:    cs.Hits + cs.Misses + cs.WriteMisses + cs.ProtFaults,
		Fills:      cs.Fills,
		Retries:    bs.Retries,
		IntrWords:  bs.IntrWords,
		BusUtilPct: 100 * m.Bus.Utilization(),
	}
	st := m.Bus.Stats()
	for _, n := range st.Transactions {
		c.BusTx += n
	}
	c.BusAborts = st.Aborts
	if h, ok := m.Bus.(*bus.Hierarchy); ok {
		ls := h.LinkStats()
		c.Crossings, c.Filtered, c.FrameWaits = ls.Crossings, ls.FilteredLocal, ls.FrameWaits
	}
	for _, b := range m.Boards {
		ms, cp := b.Mon.Stats(), b.Cop.Stats()
		c.MonChecks += ms.Checks
		c.MonInterrupts += ms.Interrupts
		c.CopierTransfers += cp.Transfers
		c.CopierAborted += cp.Aborted
	}
	return c
}
