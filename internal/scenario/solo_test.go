package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
)

// soloCell is cell c run alone through RunCtx, or RunGuarded with
// guard, and turned into a CellResult the way RunCells turns each of
// its runs into one.
func soloCell(c Cell, guard bool) CellResult {
	var rr *RunResult
	var err error
	if guard {
		rr, err = RunGuarded(context.Background(), c.Spec)
	} else {
		rr, err = RunCtx(context.Background(), c.Spec)
	}
	cr := CellResult{Name: c.Name, Spec: c.Spec}
	if err != nil {
		cr.Err = err.Error()
		var pe *PanicError
		if errors.As(err, &pe) {
			cr.Fingerprint, cr.Dump = pe.Fingerprint, pe.Dump
		}
		return cr
	}
	cr.Fingerprint, cr.Spec, cr.Summary, cr.Violations = rr.Fingerprint, rr.Spec, rr.Summary, rr.Violations
	return cr
}

// expand is g's cells, failing the test on a bad grid.
func expand(t *testing.T, g *Grid) []Cell {
	t.Helper()
	cells, err := g.Expand()
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return cells
}

// TestRunCellsMatchSolo checks that the cells of one RunCells call
// come out as each cell's spec run alone, byte for byte as JSON, at
// any worker count. The cell lists cover the repository's sweep grids
// at small refs, the fields a board's stream depends on (share_kernel,
// the scheduler's task split, a trace file two cells replay, the
// seed), a trace file that is missing, and guarded cells whose
// generation panics beside clean neighbours.
//
// A single run shares its stream table's code, so a key that misses a
// field would make both sides agree on the same wrong stream. Each
// call must therefore also generate exactly the distinct streams its
// cells need, counted here by hand, and leave its table empty.
func TestRunCellsMatchSolo(t *testing.T) {
	trc := writeTrace(t, "compile.trc", 5000)

	pagesweep, err := ReadGridFile("../../scenarios/pagesweep-grid.json")
	if err != nil {
		t.Fatal(err)
	}
	pagesweep.Base.Workload.Refs = 3000
	topology, err := ReadGridFile("../../scenarios/topology-grid.json")
	if err != nil {
		t.Fatal(err)
	}
	topology.Base.Workload.Refs = 1500

	small := func(procs int) Spec {
		return Spec{
			Machine:  MachineSpec{Processors: procs, CacheSize: 16 << 10},
			Workload: WorkloadSpec{Profile: "multi", Refs: 3000},
			Obs:      ObsSpec{Stream: true},
		}
	}
	shareKernel := &Grid{Name: "share-kernel", Base: small(3), Axes: []Axis{
		{Path: "workload.share_kernel", Values: Values(false, true)},
		{Path: "machine.page_size", Values: Values(256, 512)},
	}}
	sched := &Grid{Name: "sched", Base: small(2), Axes: []Axis{
		{Path: "kernel.sched.tasks", Values: Values(2, 3)},
		{Path: "kernel.sched.quantum_us", Values: Values(100, 300)},
	}}
	traceBase := small(2)
	traceBase.Workload = WorkloadSpec{Kind: WorkloadTrace, TraceFile: trc, Refs: 4000}
	traceFile := &Grid{Name: "trace-file", Base: traceBase, Axes: []Axis{
		{Path: "machine.page_size", Values: Values(128, 256)},
	}}
	seeds := &Grid{Name: "seeds", Base: small(2), Axes: []Axis{
		{Path: "seed", Values: Values(11, 12, 13)},
	}}

	missingBase := small(2)
	missingBase.Workload = WorkloadSpec{Kind: WorkloadTrace, TraceFile: filepath.Join(t.TempDir(), "missing.trc")}
	missing := append(expand(t, &Grid{Name: "missing", Base: missingBase, Axes: []Axis{
		{Path: "machine.page_size", Values: Values(128, 256)},
	}}), expand(t, &Grid{Name: "beside-missing", Base: small(2)})...)

	hugeBase := small(2)
	hugeBase.Workload.Refs = 1 << 60
	huge := expand(t, &Grid{Name: "huge", Base: hugeBase, Axes: []Axis{
		{Path: "machine.page_size", Values: Values(128, 256)},
	}})
	clean := expand(t, &Grid{Name: "clean", Base: small(2), Axes: []Axis{
		{Path: "machine.page_size", Values: Values(128, 256)},
	}})
	panics := []Cell{clean[0], huge[0], huge[1], clean[1]}

	cases := []struct {
		name    string
		cells   []Cell
		guard   bool
		streams int64 // distinct (board, stream) pairs of the cells
	}{
		{"pagesweep", expand(t, pagesweep), false, 2 * 2},      // profile x board
		{"topology", expand(t, topology), false, 16},           // board
		{"share-kernel", expand(t, shareKernel), false, 2 * 3}, // share_kernel x board
		{"sched", expand(t, sched), false, 2 * 2},              // tasks x board
		{"trace-file", expand(t, traceFile), false, 2},         // board
		{"seeds", expand(t, seeds), false, 3 * 2},              // seed x board
		{"missing-trace", missing, false, 2 + 2},               // board, missing file and beside it
		{"guarded-panics", panics, true, 2 + 2},                // board, huge refs and clean
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := make([][]byte, len(tc.cells))
			for i, c := range tc.cells {
				want[i], _ = json.Marshal(soloCell(c, tc.guard))
			}
			for _, workers := range []int{1, 2, 8} {
				st := newStreamTable(tc.cells)
				res, err := runCells(tc.name, tc.cells, RunOptions{Workers: workers, Guard: tc.guard}, st)
				if err != nil {
					t.Fatalf("workers %d: %v", workers, err)
				}
				if n := st.generated.Load(); n != tc.streams {
					t.Errorf("workers %d: %d streams generated, want %d", workers, n, tc.streams)
				}
				if len(st.entries) != 0 {
					t.Errorf("workers %d: %d streams left in the table", workers, len(st.entries))
				}
				for i, cr := range res.Cells {
					got, _ := json.Marshal(cr)
					if !bytes.Equal(got, want[i]) {
						t.Errorf("workers %d, cell %s:\n sweep %.400s\n solo  %.400s", workers, cr.Name, got, want[i])
					}
				}
			}
		})
	}

	// The error cases must fail the way they are meant to, or the
	// comparisons above would only compare clean runs.
	for _, c := range missing[:2] {
		if cr := soloCell(c, false); cr.Err == "" {
			t.Errorf("cell %s with a missing trace file ran", c.Name)
		}
	}
	for i, c := range panics {
		_, err := RunGuarded(context.Background(), c.Spec)
		var pe *PanicError
		if huge := i == 1 || i == 2; huge && !errors.As(err, &pe) || !huge && err != nil {
			t.Errorf("cell %s: RunGuarded error %v (refs 1<<60: %v)", c.Name, err, huge)
		}
	}
}
