package scenario

import (
	"math"
	"reflect"
	"testing"
)

func testGrid() *Grid {
	return &Grid{
		Name: "pagesweep",
		Base: Spec{Workload: WorkloadSpec{Refs: 1000}},
		Axes: []Axis{
			{Path: "machine.page_size", Values: Values(128, 256)},
			{Path: "machine.processors", Values: Values(1, 2, 4)},
		},
	}
}

// TestGridExpand pins the cross product: row-major order with the last
// axis fastest, axis values applied to each cell, cell names readable.
func TestGridExpand(t *testing.T) {
	cells, err := testGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	wantNames := []string{
		"pagesweep/page_size=128,processors=1",
		"pagesweep/page_size=128,processors=2",
		"pagesweep/page_size=128,processors=4",
		"pagesweep/page_size=256,processors=1",
		"pagesweep/page_size=256,processors=2",
		"pagesweep/page_size=256,processors=4",
	}
	wantPage := []int{128, 128, 128, 256, 256, 256}
	wantProcs := []int{1, 2, 4, 1, 2, 4}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Errorf("cell %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Spec.Machine.PageSize != wantPage[i] || c.Spec.Machine.Processors != wantProcs[i] {
			t.Errorf("cell %d = page %d procs %d, want %d/%d",
				i, c.Spec.Machine.PageSize, c.Spec.Machine.Processors, wantPage[i], wantProcs[i])
		}
		if c.Spec.Workload.Refs != 1000 {
			t.Errorf("cell %d lost the base workload refs: %+v", i, c.Spec.Workload)
		}
		if c.Spec.Seed != 11 {
			t.Errorf("cell %d not normalized: seed %d", i, c.Spec.Seed)
		}
	}
}

// TestGridExactIntegers checks that expansion keeps 64-bit integers
// exact: a base seed and seed-axis values of 2^53+1 and 2^64-1, which a
// float64 rounds, reach their cells unchanged, and each cell
// fingerprints as the same spec built directly.
func TestGridExactIntegers(t *testing.T) {
	wide := []uint64{1<<53 + 1, math.MaxUint64}
	base := Spec{Workload: WorkloadSpec{Refs: 1000}}
	grids := []*Grid{{Name: "axis", Base: base, Axes: []Axis{{Path: "seed", Values: Values(wide[0], wide[1])}}}}
	for _, seed := range wide {
		g := &Grid{Name: "base", Base: base}
		g.Base.Seed = seed
		grids = append(grids, g)
	}
	want := []uint64{wide[0], wide[1], wide[0], wide[1]}
	var cells []Cell
	for _, g := range grids {
		cs, err := g.Expand()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		cells = append(cells, cs...)
	}
	if len(cells) != len(want) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Spec.Seed != want[i] {
			t.Errorf("cell %q: seed %d, want %d", c.Name, c.Spec.Seed, want[i])
		}
		direct := base
		direct.Name, direct.Seed = c.Name, want[i]
		got, err := c.Spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp, err := direct.Fingerprint(); err != nil || got != fp {
			t.Errorf("cell %q: fingerprint %s, the spec built directly %s (%v)", c.Name, got, fp, err)
		}
	}
}

// TestGridNestedPathCreation checks an axis can address a field whose
// parent objects are absent from the base (kernel.sched.tasks with no
// kernel in the base spec), or were set by an earlier axis.
func TestGridNestedPathCreation(t *testing.T) {
	tasks := Axis{Path: "kernel.sched.tasks", Values: Values(2, 4)}
	for _, g := range []*Grid{
		{Name: "sched", Axes: []Axis{tasks}},
		{Name: "kernel", Axes: []Axis{{Path: "kernel", Values: Values(KernelSpec{UncachedPages: 3})}, tasks}},
	} {
		cells, err := g.Expand()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(cells) != 2 {
			t.Fatalf("%s: expanded %d cells, want 2", g.Name, len(cells))
		}
		for i, want := range []int{2, 4} {
			k := cells[i].Spec.Kernel
			if k == nil || k.Sched == nil || k.Sched.Tasks != want {
				t.Errorf("%s: cell %d kernel = %+v, want sched tasks %d", g.Name, i, k, want)
			}
			if g.Name == "kernel" && k != nil && k.UncachedPages != 3 {
				t.Errorf("%s: cell %d lost the kernel axis: %+v", g.Name, i, k)
			}
		}
	}
}

// TestGridStringAxis checks string-valued axes (workload profiles,
// fault plans) and the typed axis readers.
func TestGridStringAxis(t *testing.T) {
	g := &Grid{
		Name: "profiles",
		Axes: []Axis{{Path: "workload.profile", Values: Values("edit", "compile")}},
	}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Spec.Workload.Profile != "edit" || cells[1].Spec.Workload.Profile != "compile" {
		t.Errorf("profiles not applied: %q, %q", cells[0].Spec.Workload.Profile, cells[1].Spec.Workload.Profile)
	}
	if got := g.StringAxis("workload.profile"); !reflect.DeepEqual(got, []string{"edit", "compile"}) {
		t.Errorf("StringAxis = %v", got)
	}
	if got := g.IntAxis("workload.profile"); got != nil {
		t.Errorf("IntAxis on a string axis = %v, want nil", got)
	}
	pg := testGrid()
	if got := pg.IntAxis("machine.page_size"); !reflect.DeepEqual(got, []int{128, 256}) {
		t.Errorf("IntAxis = %v", got)
	}
	if got := pg.IntAxis("no.such.axis"); got != nil {
		t.Errorf("IntAxis on a missing axis = %v, want nil", got)
	}
}

// TestGridIntAxisExact: IntAxis parses each literal exactly, so an
// integer past 2^53 keeps its last digit, and a value that does not
// fit in an int is rejected rather than rounded.
func TestGridIntAxisExact(t *testing.T) {
	g := &Grid{Axes: []Axis{
		{Path: "seed", Values: Values(uint64(1)<<53+1, 3)},
		{Path: "huge", Values: Values(^uint64(0))},
		{Path: "frac", Values: Values(2.5)},
	}}
	if got := g.IntAxis("seed"); !reflect.DeepEqual(got, []int{1<<53 + 1, 3}) {
		t.Errorf("IntAxis(seed) = %v, want [%d 3]", got, 1<<53+1)
	}
	for _, path := range []string{"huge", "frac"} {
		if got := g.IntAxis(path); got != nil {
			t.Errorf("IntAxis(%s) = %v, want nil", path, got)
		}
	}
}

// TestGridNoAxes checks a grid with no axes is a single-cell sweep of
// its base.
func TestGridNoAxes(t *testing.T) {
	g := &Grid{Name: "solo", Base: Spec{Machine: MachineSpec{Processors: 2}}}
	cells, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Name != "solo" || cells[0].Spec.Machine.Processors != 2 {
		t.Fatalf("cells = %+v", cells)
	}
}

// TestGridRejections covers axis validation and invalid cells.
func TestGridRejections(t *testing.T) {
	if _, err := (&Grid{Axes: []Axis{{Path: "", Values: Values(1)}}}).Expand(); err == nil {
		t.Error("empty axis path accepted")
	}
	if _, err := (&Grid{Axes: []Axis{{Path: "seed"}}}).Expand(); err == nil {
		t.Error("empty axis values accepted")
	}
	bad := &Grid{Axes: []Axis{{Path: "machine.page_size", Values: Values(100)}}}
	if _, err := bad.Expand(); err == nil {
		t.Error("invalid cell (page size 100) accepted")
	}
	typo := &Grid{Axes: []Axis{{Path: "machine.page_sizes", Values: Values(128)}}}
	if _, err := typo.Expand(); err == nil {
		t.Error("axis path typo accepted (should fail spec parse)")
	}
}

// TestParseGridUnknownField checks grid files reject typos too.
func TestParseGridUnknownField(t *testing.T) {
	if _, err := ParseGrid([]byte(`{"nam": "x"}`)); err == nil {
		t.Fatal("ParseGrid accepted an unknown field")
	}
}
