package scenario

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"vmp/internal/kernel"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// serialTasks is the reference for boardTasks: each board's stream, one
// board after another, then with tasksPer > 0 a copy of each consecutive
// slice re-stamped with ASID 1 + board*tasksPer + task.
func serialTasks(t *testing.T, s *Spec, boards, tasksPer int) [][]kernel.Task {
	t.Helper()
	all := make([][]kernel.Task, boards)
	for i := range all {
		refs, err := keyOf(s, i).stream()
		if err != nil {
			t.Fatal(err)
		}
		if tasksPer == 0 {
			all[i] = []kernel.Task{{ASID: uint8(i + 1), Refs: refs}}
			continue
		}
		per := len(refs) / tasksPer
		for task := 0; task < tasksPer; task++ {
			asid := uint8(1 + i*tasksPer + task)
			lo, hi := task*per, (task+1)*per
			if task == tasksPer-1 {
				hi = len(refs)
			}
			part := make([]trace.Ref, hi-lo)
			copy(part, refs[lo:hi])
			for j := range part {
				part[j].ASID = asid
			}
			all[i] = append(all[i], kernel.Task{ASID: asid, Refs: part})
		}
	}
	return all
}

// writeTrace writes n references of the compile profile (seed 5) as a
// binary trace file named name in a temporary directory and returns
// its path.
func writeTrace(t *testing.T, name string, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := workload.Generate(workload.Compile, 5, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(f, refs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBoardTasksMatchSerial checks that the concurrent set-up yields
// the serial loop's streams, element by element: every profile with
// the kernel region shared and sliced, the kernel scheduler's task
// split, and a binary trace file.
func TestBoardTasksMatchSerial(t *testing.T) {
	path := writeTrace(t, "compile.trc", 6000)

	var specs []Spec
	for _, p := range workload.Profiles() {
		for _, share := range []bool{false, true} {
			specs = append(specs, Spec{
				Name:     fmt.Sprintf("%s-share=%v", p, share),
				Machine:  MachineSpec{Processors: 4},
				Workload: WorkloadSpec{Profile: string(p), Refs: 20_000, ShareKernel: share},
			})
		}
	}
	for _, tasks := range []int{2, 3} {
		specs = append(specs, Spec{
			Name:     fmt.Sprintf("sched-%d", tasks),
			Machine:  MachineSpec{Processors: 3},
			Workload: WorkloadSpec{Profile: "multi", Refs: 20_001},
			Kernel:   &KernelSpec{Sched: &SchedSpec{Tasks: tasks}},
		})
	}
	specs = append(specs, Spec{
		Name:     "trace-file",
		Machine:  MachineSpec{Processors: 4},
		Workload: WorkloadSpec{Kind: WorkloadTrace, TraceFile: path, Refs: 5000},
	})

	for _, s := range specs {
		if err := s.Normalize(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		tasksPer := 0
		if s.Kernel != nil && s.Kernel.Sched != nil {
			tasksPer = s.Kernel.Sched.Tasks
		}
		got, err := newStreamTable([]Cell{{Spec: s}}).boardTasks(&s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		want := serialTasks(t, &s, s.Machine.Processors, tasksPer)
		if len(got) != len(want) {
			t.Fatalf("%s: %d boards, want %d", s.Name, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s board %d: %d tasks, want %d", s.Name, i, len(got[i]), len(want[i]))
			}
			for k, w := range want[i] {
				g := got[i][k]
				if g.ASID != w.ASID || len(g.Refs) != len(w.Refs) {
					t.Fatalf("%s board %d task %d: ASID %d with %d refs, want ASID %d with %d",
						s.Name, i, k, g.ASID, len(g.Refs), w.ASID, len(w.Refs))
				}
				for j := range w.Refs {
					if g.Refs[j] != w.Refs[j] {
						t.Fatalf("%s board %d task %d ref %d: %v, want %v", s.Name, i, k, j, g.Refs[j], w.Refs[j])
					}
				}
			}
		}
	}
}

// TestBoardTasksMissingTraceFile checks that a failed set-up returns
// board 0's error, as a serial loop would, and that Run reports it.
func TestBoardTasksMissingTraceFile(t *testing.T) {
	s := Spec{
		Machine:  MachineSpec{Processors: 4},
		Workload: WorkloadSpec{Kind: WorkloadTrace, TraceFile: filepath.Join(t.TempDir(), "missing.trc")},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	_, want := keyOf(&s, 0).stream()
	if _, err := newStreamTable([]Cell{{Spec: s}}).boardTasks(&s); err == nil || err.Error() != want.Error() {
		t.Fatalf("boardTasks error %v, want board 0's %v", err, want)
	}
	if _, err := Run(s); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Run error %v, want a missing-file error", err)
	}
}

// TestBoardTasksPanicIsContained checks that a panic on a generating
// goroutine reaches RunGuarded as a *PanicError instead of ending the
// process: a reference count too large for a slice panics in make.
func TestBoardTasksPanicIsContained(t *testing.T) {
	s := Spec{
		Machine:  MachineSpec{Processors: 4},
		Workload: WorkloadSpec{Profile: "edit", Refs: 1 << 60},
	}
	_, err := RunGuarded(context.Background(), s)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunGuarded error %v, want a *PanicError", err)
	}
}
