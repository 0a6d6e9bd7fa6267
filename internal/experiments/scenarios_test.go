package experiments

import (
	"bytes"
	"testing"

	"vmp/internal/scenario"
)

// keptGrids lists every grid the package keeps at o: the goldens'
// grids (runner grids and literal fixtures) and the runner grids of
// cells that replay no workload. Each is named after its experiment.
func keptGrids(o Options) []*scenario.Grid {
	return append(goldenGrids(o), pageContentionGrid(o), faultSweepGrid(o), protocolCompareGrid(o))
}

// TestEveryExperimentHasScenario checks, at default options, every
// experiment that keeps a grid (keptGrids): the grid names a
// registered experiment, expands, and every cell's spec fingerprints
// and round-trips through canonical JSON to the same bytes and
// fingerprint. The other experiments' runs are pinned by their exp:
// lines in TestEventGoldens instead.
func TestEveryExperimentHasScenario(t *testing.T) {
	for _, g := range keptGrids(DefaultOptions()) {
		g := g
		t.Run(g.Name, func(t *testing.T) { checkGridRoundTrip(t, g) })
	}
}

// TestScenarioQuickVariants runs the same checks on the kept grids at
// quick options.
func TestScenarioQuickVariants(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	for _, g := range keptGrids(o) {
		checkGridRoundTrip(t, g)
	}
}

func checkGridRoundTrip(t *testing.T, g *scenario.Grid) {
	t.Helper()
	if _, ok := Lookup(g.Name); !ok {
		t.Fatalf("grid %q names no registered experiment", g.Name)
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatalf("grid %q does not expand: %v", g.Name, err)
	}
	if len(cells) == 0 {
		t.Fatalf("grid %q expanded to zero cells", g.Name)
	}
	for _, c := range cells {
		fp, err := c.Spec.Fingerprint()
		if err != nil {
			t.Fatalf("cell %q does not fingerprint: %v", c.Name, err)
		}
		canon, err := c.Spec.Canonical()
		if err != nil {
			t.Fatalf("cell %q has no canonical form: %v", c.Name, err)
		}
		back, err := scenario.ParseSpec(canon)
		if err != nil {
			t.Fatalf("cell %q canonical JSON does not parse: %v", c.Name, err)
		}
		canon2, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Errorf("cell %q canonical form is not a fixed point:\n  %s\n  %s", c.Name, canon, canon2)
		}
		fp2, err := back.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != fp2 {
			t.Errorf("cell %q fingerprint changed across the round trip: %s vs %s", c.Name, fp, fp2)
		}
	}
}

// TestSweepingExperimentsMatchTheirGrids pins the refactored sweeps to
// their declarative axes: the values the experiments iterate are the
// grid's, not a drifted copy.
func TestSweepingExperimentsMatchTheirGrids(t *testing.T) {
	o := DefaultOptions()
	if got := fig4Grid(o).IntAxis("machine.page_size"); len(got) != 3 || got[0] != 128 {
		t.Errorf("fig4 page sizes = %v", got)
	}
	if got := fig4Grid(o).IntAxis("machine.cache_size"); len(got) != 3 || got[2] != 256<<10 {
		t.Errorf("fig4 cache sizes = %v", got)
	}
	if got := scalingGrid(o).IntAxis("machine.processors"); len(got) != 7 || got[6] != 8 {
		t.Errorf("scaling counts = %v", got)
	}
	o.Quick = true
	if got := scalingGrid(o).IntAxis("machine.processors"); len(got) != 4 || got[3] != 6 {
		t.Errorf("quick scaling counts = %v", got)
	}
	plans := faultSweepGrid(o).StringAxis("faults")
	if len(plans) != 5 || plans[0] != "none" {
		t.Errorf("fault plans = %v", plans)
	}
}
