package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"vmp/internal/trace"
	"vmp/internal/workload"
)

// traceMachine builds a 2-board machine with long edit traces attached,
// enough work that a cancellation always lands mid-run.
func traceMachine(t *testing.T) *Machine {
	t.Helper()
	m := newTestMachine(t, 2)
	for i := 0; i < 2; i++ {
		refs, err := workload.Generate(workload.Edit, uint64(i+1), 150_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.EnsureSpace(1); err != nil {
			t.Fatal(err)
		}
		m.RunTrace(i, trace.NewSliceSource(refs))
	}
	return m
}

func TestRunCtxCanceledStopsAndUnwinds(t *testing.T) {
	m := traceMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.RunCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if live := m.Eng.Live(); live != 0 {
		t.Fatalf("%d live processes after cancelled RunCtx; coroutines leaked", live)
	}
}

func TestRunCtxUnfiredContextIsIdentical(t *testing.T) {
	plain := traceMachine(t)
	endPlain := plain.Run()

	withCtx := traceMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	endCtx, err := withCtx.RunCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if endPlain != endCtx {
		t.Fatalf("end time diverged: Run %v vs RunCtx %v", endPlain, endCtx)
	}
	csA, bsA := plain.TotalStats()
	csB, bsB := withCtx.TotalStats()
	if csA != csB || bsA != bsB {
		t.Fatalf("stats diverged with an unfired context:\n%+v %+v\nvs\n%+v %+v", csA, bsA, csB, bsB)
	}
}

func TestSetContextCancellationPanicsCanceled(t *testing.T) {
	m := traceMachine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m.SetContext(ctx)
	defer func() {
		r := recover()
		c, ok := r.(Canceled)
		if !ok {
			t.Fatalf("recovered %T (%v), want core.Canceled", r, r)
		}
		if !errors.Is(c.Err, context.Canceled) {
			t.Fatalf("Canceled.Err = %v, want context.Canceled", c.Err)
		}
		if live := m.Eng.Live(); live != 0 {
			t.Fatalf("%d live processes after Canceled panic", live)
		}
	}()
	m.Run()
	t.Fatal("Run returned despite a cancelled run context")
}

// TestRunLeavesNoCoroutine: a run with misses uses every board's block
// copier, whose process pauses between transfers; RunCtx ends them, so
// no coroutine outlives the run. A second run on the same machine fills
// pages through copiers spawned afresh.
func TestRunLeavesNoCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	m := newTestMachine(t, 2)
	if err := m.EnsureSpace(1); err != nil {
		t.Fatal(err)
	}
	ps := uint32(m.Config().Cache.PageSize)
	touch := func(first uint32) {
		for i := 0; i < 2; i++ {
			m.RunProgram(i, func(c *CPU) {
				c.SetASID(1)
				for k := uint32(0); k < 8; k++ {
					c.Store(first+(k*2+uint32(i))*ps, k)
				}
			})
		}
		m.Run()
	}
	for run, first := range []uint32{0x4000, 0x40000} {
		before := m.Boards[0].Cop.Stats().Transfers
		touch(first)
		if got := m.Boards[0].Cop.Stats().Transfers; got <= before {
			t.Fatalf("run %d: board 0's copier moved no pages", run)
		}
		if live := m.Eng.Live(); live != 0 {
			t.Fatalf("run %d: %d live processes after Run, want 0", run, live)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: %d goroutines after Run, baseline %d", run, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	checkClean(t, m)
}
