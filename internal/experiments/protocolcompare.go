package experiments

import (
	"fmt"

	"vmp/internal/check/diff"
	"vmp/internal/scenario"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// protocolCompareGrid is the protocol sweep: one sharing-heavy planned
// workload per registered coherence protocol, selected through the
// spec's protocol field. ProtocolCompare reads the protocol list and
// the machine shape from here, but runs the differential oracle's
// planned workload at its own seed, not these cells.
func protocolCompareGrid(Options) *scenario.Grid {
	return &scenario.Grid{
		Name: "protocol-compare",
		Base: scenario.Spec{
			Machine:  machineSpec(4, 64<<10),
			Workload: none,
			Check:    true,
		},
		Axes: []scenario.Axis{
			{Path: "protocol", Values: scenario.Values("vmp2", "vmp3", "rlt")},
		},
	}
}

// ProtocolCompare runs the differential oracle's planned workload
// (internal/check/diff) under every registered protocol on otherwise
// identical machines and tabulates what each protocol pays on the bus
// for the same work: miss cost, bus occupancy, abort and retry counts,
// AssertOwnership upgrades (which vmp3's exclusive-clean grant elides)
// and synonym fills (which only rlt resolves locally). The differential
// oracle gates the table: any watchdog violation or any cross-protocol
// disagreement on the final memory image is an error, not a row.
func ProtocolCompare(o Options) (*Result, error) {
	opsPerCPU := 400
	if o.Quick {
		opsPerCPU = 150
	}
	sg := protocolCompareGrid(o)
	protos := sg.StringAxis("protocol")
	if len(protos) == 0 {
		return nil, fmt.Errorf("protocol-compare: grid has no protocol axis")
	}

	faults := ""
	if o.Faults != nil && o.Faults.Enabled() {
		faults = o.Faults.String()
	}
	rep, err := diff.Run(diff.Config{
		Protocols:  protos,
		Processors: sg.Base.Machine.Processors,
		Seed:       o.Seed,
		Faults:     faults,
		OpsPerCPU:  opsPerCPU,
		PageSize:   sg.Base.Machine.PageSize,
		CacheKB:    sg.Base.Machine.CacheSize >> 10,
		NewMachine: o.machine,
	})
	if err != nil {
		return nil, fmt.Errorf("protocol-compare: %w", err)
	}
	for _, out := range rep.Outcomes {
		if len(out.Violations) != 0 {
			return nil, fmt.Errorf("protocol-compare: %s: %v", out.Protocol, out.Violations)
		}
	}
	if len(rep.Mismatches) != 0 {
		return nil, fmt.Errorf("protocol-compare: final images diverge: %v", rep.Mismatches)
	}

	t := stats.NewTable("Coherence protocols on one planned workload (4 CPUs, shared pages + synonyms + TAS lock)",
		"Protocol", "Miss Ratio", "Miss Cost (us)", "Bus Util", "Aborts", "Retries", "AssertOwn", "RdExcl", "WriteBacks", "Syn Fills", "Elapsed (ms)")
	for _, out := range rep.Outcomes {
		missCost := 0.0
		if out.Misses > 0 {
			missCost = float64(out.MissTime) / float64(out.Misses) / float64(sim.Microsecond)
		}
		t.Add(out.Protocol,
			fmt.Sprintf("%.4f", out.MissRatio),
			fmt.Sprintf("%.2f", missCost),
			fmt.Sprintf("%.3f", out.BusUtil),
			out.BusAborts, out.Retries, out.AssertOwn, out.ReadExclusive,
			out.WriteBacks, out.SynonymFills,
			float64(out.Elapsed)/float64(sim.Millisecond))
	}
	t.Note = "identical final memory images under every protocol (differential oracle); " +
		"vmp3 trades AssertOwnership upgrades for ReadExclusive fills, rlt trades self-abort retries for local synonym fills"
	return &Result{
		ID:    "protocol-compare",
		Title: "coherence-protocol comparison under the differential oracle",
		Table: t,
		PaperNote: "Section 3.2 fixes the 2-state protocol in hardware tables; the paper argues the software " +
			"miss handler makes the protocol replaceable but evaluates only one — this sweep measures two variants it enables",
	}, nil
}
