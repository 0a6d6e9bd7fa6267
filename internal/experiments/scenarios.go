package experiments

import (
	"vmp/internal/scenario"
	"vmp/internal/workload"
)

// This file holds the scenario.Grids whose axes a runner reads: fig4,
// assoc, scaling, topology, pagecontention, fault-sweep and
// protocol-compare (protocolcompare.go). Each runner takes its axis
// values, and most of them the base machine shape and refs per board,
// from its grid; it builds its own machines through Options.machine
// and runs them at seedFor(seed, id). TestEventGoldens pins the event
// order of those machines.

// profileAxis lists the registered workload profiles as a grid axis.
func profileAxis() []scenario.RawValue {
	var vs []any
	for _, p := range workload.Profiles() {
		vs = append(vs, string(p))
	}
	return scenario.Values(vs...)
}

// machineSpec is shorthand for the experiments' standard machine shape
// (256-byte pages, 4-way, 8 MB memory — the newMachine helper).
func machineSpec(procs, cacheSize int) scenario.MachineSpec {
	return scenario.MachineSpec{
		Processors: procs,
		CacheSize:  cacheSize,
		PageSize:   256,
		Assoc:      4,
		MemorySize: 8 << 20,
	}
}

// fig4Grid is Figure 4's sweep: cold-start miss ratio over every
// profile × page size × cache size. Figure4 reads its axes from here.
func fig4Grid(o Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "fig4",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Refs: o.traceLen()},
		},
		Axes: []scenario.Axis{
			{Path: "workload.profile", Values: profileAxis()},
			{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)},
			{Path: "machine.cache_size", Values: scenario.Values(64<<10, 128<<10, 256<<10)},
		},
	}
}

// assocGrid is the associativity ablation's sweep: every profile at
// 128 KB / 256 B with 1, 2 and 4 ways.
func assocGrid(o Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "assoc",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Refs: o.traceLen()},
		},
		Axes: []scenario.Axis{
			{Path: "workload.profile", Values: profileAxis()},
			{Path: "machine.assoc", Values: scenario.Values(1, 2, 4)},
		},
	}
}

// scalingGrid is the Section 5.3 scaling sweep: independent edit
// traces on 1-8 processors sharing one bus.
func scalingGrid(o Options) *scenario.Grid {
	counts := scenario.Values(1, 2, 3, 4, 5, 6, 8)
	refsPer := 120_000
	if o.Quick {
		counts = scenario.Values(1, 2, 4, 6)
		refsPer = 25_000
	}
	return &scenario.Grid{
		Name: "scaling",
		Base: scenario.Spec{
			Machine:  machineSpec(1, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refsPer},
		},
		Axes: []scenario.Axis{
			{Path: "machine.processors", Values: counts},
		},
	}
}

// topologyGrid is the hierarchical-interconnect sweep: a 64-board
// machine running independent edit traces, with the board count fixed
// and the number of local bus segments swept via the dotted topology
// stanza (boards_per_bus normalizes to an even spread). buses=1 is the
// classic single shared VMEbus far past its Section 5.3 saturation
// point — the case the hierarchy exists to fix. The boards share the
// kernel region: a private region per board fits only 17 boards (see
// Spec.Normalize); AblationTopology slices the kernel region itself.
func topologyGrid(o Options) *scenario.Grid {
	refsPer := 12_000
	buses := scenario.Values(1, 2, 4, 8, 16)
	if o.Quick {
		refsPer = 2_500
		buses = scenario.Values(1, 4, 8)
	}
	m := machineSpec(64, 64<<10)
	// 64 boards touch far more distinct pages than the prototype's 8 MB
	// holds; the hierarchy models a bigger multi-ported memory anyway.
	m.MemorySize = 32 << 20
	return &scenario.Grid{
		Name: "topology",
		Base: scenario.Spec{
			Machine:  m,
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refsPer, ShareKernel: true},
		},
		Axes: []scenario.Axis{
			{Path: "topology.buses", Values: buses},
		},
	}
}

// pageContentionGrid is the false-sharing sweep: four writers sharing
// one page at each VMP page size.
func pageContentionGrid(Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "pagecontention",
		Base: scenario.Spec{
			Machine:  machineSpec(4, 64<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadNone},
		},
		Axes: []scenario.Axis{
			{Path: "machine.page_size", Values: scenario.Values(128, 256, 512)},
		},
	}
}

// faultSweepGrid is the recovery grid: one sharing-heavy survival
// workload under escalating fault plans (internal/fault textual form).
// FaultSweep reads the plans from here; the "none" cell normalizes to
// an empty plan with only the watchdog armed.
func faultSweepGrid(Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "fault-sweep",
		Base: scenario.Spec{
			Machine:  machineSpec(4, 64<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadNone},
			Check:    true,
		},
		Axes: []scenario.Axis{
			{Path: "faults", Values: scenario.Values(
				"none",
				"abort=0.15",
				"abort=0.05,copy=0.1",
				"fifo=2,storm=0.25,stormmax=4",
				"abort=0.1,copy=0.05,fifo=2,storm=0.15,stormmax=4,flip=0.05",
			)},
		},
	}
}

// none is the workload spec of a grid whose runner synthesizes its
// reference streams in code.
var none = scenario.WorkloadSpec{Kind: scenario.WorkloadNone}
