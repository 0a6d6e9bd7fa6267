package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmp/internal/fault"
	"vmp/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/event_goldens.txt from the current code")

// eventGoldens holds one line per cell: its name, the digest of its
// event stream and a hash of its summary and violations — or, for a
// cell that is meant to fail, its error text. After the cells come the
// experiments' machines, one "exp:" line each, and then the same
// machines under goldenFaults, one "expf:" line each
// (experimentLines).
const eventGoldens = "testdata/event_goldens.txt"

// goldenFaults is the run-level fault plan of the "expf:" lines. The
// whole registry survives it at quick options.
const goldenFaults = "abort=0.01,copy=0.05"

// TestEventGoldens pins the event order of every cell of goldenGrids
// (quick options) and recordsGrid, of every cell of the committed
// scenarios/*.json and of every machine the registered experiments
// build at quick options, each run with the full event stream
// retained. The experiments run twice: as they are, and with
// goldenFaults and Check set, which pins that the run-level fault plan
// reaches each machine at the experiment's seed. A rewrite of the
// substrate (engine, interconnect) must leave every line unchanged.
// livelock-demo.json is meant to fail, so its error text is pinned
// instead. Run with -update to rewrite the goldens.
func TestEventGoldens(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	var cells []scenario.Cell
	for _, g := range append(goldenGrids(o), recordsGrid()) {
		cs, err := g.Expand()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		cells = append(cells, cs...)
	}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenario files found: %v", err)
	}
	for _, f := range files {
		cs, err := scenarioFileCells(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cs {
			cs[i].Name = filepath.Base(f) + ":" + cs[i].Name
		}
		cells = append(cells, cs...)
	}
	for i := range cells {
		cells[i].Spec.Obs.Stream = true
	}

	res, err := scenario.RunCells("goldens", cells, scenario.RunOptions{Workers: 2, Guard: true})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, c := range res.Cells {
		if c.Err != "" && !strings.HasPrefix(c.Name, "livelock-demo.json:") {
			t.Errorf("%s failed: %s", c.Name, c.Err)
		}
		lines = append(lines, goldenLine(c))
	}
	lines = append(lines, experimentLines(t, o, "exp")...)
	fo := o
	fo.Check = true
	if fo.Faults, err = fault.Parse(goldenFaults); err != nil {
		t.Fatal(err)
	}
	lines = append(lines, experimentLines(t, fo, "expf")...)
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(eventGoldens, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(eventGoldens)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d lines, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("line %d drifted:\n  got  %s\n  want %s", i, lines[i], want[i])
		}
	}
}

// noMachineLine names the experiments that pin no machine: fig1 and
// fig2 build one only to report its configuration, and fig4, assoc and
// clustering replay their streams through cache.Simulate.
var noMachineLine = map[string]bool{"fig1": true, "fig2": true, "fig4": true, "assoc": true, "clustering": true}

// experimentLines runs every registered experiment at o, through
// runOne with its derived seed, with each machine's event stream
// retained. It renders one line per machine whose sink emitted events,
// in the order the experiment built its machines (k):
// "<prefix>:<id>#<k> <event digest> <events fired>". A bare engine
// (Options.engine, no sink) pins its events fired and final simulated
// time instead: "<prefix>:<id>#<k> engine <events fired> <ns>".
func experimentLines(t *testing.T, o Options, prefix string) []string {
	var lines []string
	for _, e := range All() {
		tr := &engineTrack{stream: true}
		if _, err := runOne(&e, o, tr); err != nil {
			t.Error(err)
			continue
		}
		n := 0
		for k, r := range tr.done {
			name := fmt.Sprintf("%s:%s#%d", prefix, e.ID, k)
			fired := r.metrics.EventsFired
			switch {
			case r.bare:
				lines = append(lines, fmt.Sprintf("%s engine %d %d", name, fired, r.now))
			case r.events > 0:
				lines = append(lines, fmt.Sprintf("%s %016x %d", name, r.digest, fired))
			default:
				continue
			}
			n++
		}
		switch {
		case n == 0 && !noMachineLine[e.ID]:
			t.Errorf("%s: no machine it built emitted an event, so nothing pins its event order", e.ID)
		case n > 0 && noMachineLine[e.ID]:
			t.Errorf("%s: pins %d machines but is listed in noMachineLine", e.ID, n)
		}
	}
	return lines
}

// goldenGrids lists, in registry order, the grids whose cells the
// event goldens run: the runner grids whose cells replay a workload,
// and literal fixtures for four experiments whose runners read no grid
// (fig5, asid, consistency and misscost). The fixtures' cells are not
// the runs their experiments make; the asid cells are the only event
// pin on the scenario path's kernel.sched wiring.
func goldenGrids(o Options) []*scenario.Grid {
	edit := func(procs, refs int) scenario.Spec {
		return scenario.Spec{
			Machine:  machineSpec(procs, 128<<10),
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: refs},
		}
	}
	asid := edit(1, 60_000)
	if o.Quick {
		asid.Workload.Refs = 12_000
	}
	asid.Kernel = &scenario.KernelSpec{Sched: &scenario.SchedSpec{Tasks: 2}}
	misscost := edit(4, o.traceLen())
	misscost.Obs.Stream = true
	return []*scenario.Grid{
		fig4Grid(o),
		{Name: "fig5", Base: edit(1, o.traceLen())},
		scalingGrid(o),
		{Name: "asid", Base: asid, Axes: []scenario.Axis{
			{Path: "kernel.sched.flush_on_switch", Values: scenario.Values(false, true)},
		}},
		assocGrid(o),
		{Name: "consistency", Base: edit(4, o.traceLen())},
		{Name: "misscost", Base: misscost},
		topologyGrid(o),
	}
}

// recordsGrid is a fixture of the event goldens that is no
// experiment's. It pins the board's frame-record paths that no
// experiment takes under vmp3 and rlt, FlushCache (a scheduler that
// flushes on every switch) and FIFO-overflow recovery (fifo=2), on
// caches small enough that every board evicts, beside the fills,
// upgrades, downgrades and releases of a shared kernel.
func recordsGrid() *scenario.Grid {
	base := scenario.Spec{
		Machine:  machineSpec(4, 16<<10),
		Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadProfile, Profile: "edit", Refs: 12_000, ShareKernel: true},
		Kernel:   &scenario.KernelSpec{Sched: &scenario.SchedSpec{Tasks: 2, FlushOnSwitch: true}},
		Faults:   "fifo=2",
		Check:    true,
	}
	return &scenario.Grid{Name: "records", Base: base, Axes: []scenario.Axis{
		{Path: "protocol", Values: scenario.Values("vmp2", "vmp3", "rlt")},
	}}
}

// scenarioFileCells expands a committed scenario file: a grid (it has
// a "base") into its cells, a spec into one cell named after it.
func scenarioFileCells(path string) ([]scenario.Cell, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Base json.RawMessage `json:"base"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if probe.Base != nil {
		g, err := scenario.ParseGrid(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return g.Expand()
	}
	s, err := scenario.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []scenario.Cell{{Name: s.Name, Spec: *s}}, nil
}

// goldenLine renders one cell's golden line.
func goldenLine(c scenario.CellResult) string {
	if c.Err != "" {
		return c.Name + " error: " + c.Err
	}
	data, err := json.Marshal(struct {
		Summary    scenario.Summary
		Violations []string
	}{c.Summary, c.Violations})
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%s %s %016x", c.Name, c.Summary.Digest, h.Sum64())
}
