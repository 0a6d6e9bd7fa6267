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

// refTask is one task of the reference set-up: its ASID and its
// references.
type refTask struct {
	asid uint8
	refs []trace.Ref
}

// serialTasks is the reference for boardTasks, made one board after
// another as set-up once made it: the board's whole stream as a slice
// (workload.Generate, or the trace file's first refs references), the
// ASID stamp and the kernel-region shift over that slice, and with
// tasksPer > 0 a copy of each consecutive part re-stamped with ASID
// 1 + board*tasksPer + task.
func serialTasks(t *testing.T, s *Spec, tasksPer int) [][]refTask {
	t.Helper()
	all := make([][]refTask, s.Machine.Processors)
	for i := range all {
		refs := serialStream(t, s, i)
		if tasksPer == 0 {
			all[i] = []refTask{{asid: uint8(i + 1), refs: refs}}
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
			all[i] = append(all[i], refTask{asid: asid, refs: part})
		}
	}
	return all
}

// serialStream is board i's whole stream as a stamped slice: seed
// seed+31*i, ASID i+1, and the kernel region moved up by i<<24 unless
// the boards share it.
func serialStream(t *testing.T, s *Spec, i int) []trace.Ref {
	t.Helper()
	w := s.Workload
	var refs []trace.Ref
	switch w.Kind {
	case WorkloadProfile:
		r, err := workload.Generate(workload.Profile(w.Profile), s.Seed+uint64(i)*31, w.Refs)
		if err != nil {
			t.Fatal(err)
		}
		refs = r
	case WorkloadTrace:
		f, err := os.Open(w.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		br, err := trace.OpenBinary(f)
		if err != nil {
			t.Fatal(err)
		}
		refs = trace.Collect(br, w.Refs)
		if err := br.Err(); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("no reference stream for workload kind %q", w.Kind)
	}
	for j := range refs {
		refs[j].ASID = uint8(i + 1)
		if !w.ShareKernel && refs[j].VAddr >= workload.KernelCodeBase {
			refs[j].VAddr += uint32(i) << 24
		}
	}
	return refs
}

// taskRefs reads a task's references back.
func taskRefs(task kernel.Task) []trace.Ref {
	rd := task.Refs.Reader()
	return trace.Collect(&rd, 0)
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
// the serial loop's streams, reference by reference: every profile
// with the kernel region shared and sliced, the kernel scheduler's
// task split, and a binary trace file, longer and shorter than the
// spec's refs, with and without the split.
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
	}, Spec{
		Name:     "trace-file-short",
		Machine:  MachineSpec{Processors: 2},
		Workload: WorkloadSpec{Kind: WorkloadTrace, TraceFile: path, Refs: 9000},
	}, Spec{
		Name:     "trace-file-sched",
		Machine:  MachineSpec{Processors: 2},
		Workload: WorkloadSpec{Kind: WorkloadTrace, TraceFile: path, Refs: 5001},
		Kernel:   &KernelSpec{Sched: &SchedSpec{Tasks: 2}},
	}, Spec{
		Name:     "trace-file-short-sched",
		Machine:  MachineSpec{Processors: 2},
		Workload: WorkloadSpec{Kind: WorkloadTrace, TraceFile: path, Refs: 9000},
		Kernel:   &KernelSpec{Sched: &SchedSpec{Tasks: 3}},
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
		want := serialTasks(t, &s, tasksPer)
		if len(got) != len(want) {
			t.Fatalf("%s: %d boards, want %d", s.Name, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s board %d: %d tasks, want %d", s.Name, i, len(got[i]), len(want[i]))
			}
			for k, w := range want[i] {
				g := got[i][k]
				refs := taskRefs(g)
				if g.ASID != w.asid || len(refs) != len(w.refs) {
					t.Fatalf("%s board %d task %d: ASID %d with %d refs, want ASID %d with %d",
						s.Name, i, k, g.ASID, len(refs), w.asid, len(w.refs))
				}
				for j := range w.refs {
					if refs[j] != w.refs[j] {
						t.Fatalf("%s board %d task %d ref %d: %v, want %v", s.Name, i, k, j, refs[j], w.refs[j])
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
	_, want := keyOf(&s, 0).tasks()
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
