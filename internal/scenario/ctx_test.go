package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"vmp/internal/core"
)

// livelockSpec is a deterministic livelock reproduction: every
// abortable bus transaction is aborted (abort=1), so the first miss
// retries until the (deliberately tiny) hard limit trips the
// simulator's livelock panic.
func livelockSpec() Spec {
	return Spec{
		Name: "livelock-repro",
		Machine: MachineSpec{
			Processors: 1,
			Retry:      &core.RetryPolicy{BackoffShiftCap: 2, StarveThreshold: 4, HardLimit: 8},
		},
		Workload: WorkloadSpec{Kind: WorkloadProfile, Refs: 1_000},
		Faults:   "abort=1",
		Obs:      ObsSpec{RingSize: 128},
	}
}

func namedSpec(name string) Spec {
	return Spec{
		Name:     name,
		Workload: WorkloadSpec{Kind: WorkloadProfile, Refs: 3_000},
	}
}

func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, namedSpec("cancelled"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
}

func TestRunCtxUnfiredContextIsByteIdentical(t *testing.T) {
	plain, err := Run(namedSpec("ident"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := RunCtx(ctx, namedSpec("ident"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain.Summary)
	b, _ := json.Marshal(withCtx.Summary)
	if string(a) != string(b) {
		t.Fatalf("summary diverged with an unfired context:\n%s\nvs\n%s", a, b)
	}
	if plain.Fingerprint != withCtx.Fingerprint {
		t.Fatalf("fingerprint diverged: %s vs %s", plain.Fingerprint, withCtx.Fingerprint)
	}
}

func TestRunGuardedContainsLivelock(t *testing.T) {
	res, err := RunGuarded(context.Background(), livelockSpec())
	if err == nil {
		t.Fatalf("RunGuarded returned %+v; want a contained livelock fault", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Message, "livelocked") {
		t.Errorf("Message = %q, want the livelock panic text", pe.Message)
	}
	if pe.Name != "livelock-repro" {
		t.Errorf("Name = %q, want livelock-repro", pe.Name)
	}
	if len(pe.Fingerprint) != 16 {
		t.Errorf("Fingerprint = %q, want 16 hex digits", pe.Fingerprint)
	}
	if !strings.Contains(pe.Dump, "FLIGHT RECORDER DUMP") || !strings.Contains(pe.Dump, "livelock") {
		t.Errorf("Dump does not carry the flight-recorder dump:\n%.300s", pe.Dump)
	}
	if pe.Stack == "" {
		t.Error("Stack is empty; the process panic should carry its goroutine stack")
	}
	if pe.Error() == "" || !strings.Contains(pe.Error(), "livelock-repro") {
		t.Errorf("Error() = %q", pe.Error())
	}
}

// TestRunGuardedLeaksNoGoroutines pins the containment contract that
// makes a long-running daemon viable: repeated faulted runs must not
// accumulate parked coroutines.
func TestRunGuardedLeaksNoGoroutines(t *testing.T) {
	// Warm up once so lazily started runtime goroutines don't skew the
	// baseline.
	if _, err := RunGuarded(context.Background(), livelockSpec()); err == nil {
		t.Fatal("expected a fault")
	}
	base := runtime.NumGoroutine()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, err := RunGuarded(context.Background(), livelockSpec()); err == nil {
			t.Fatal("expected a fault")
		}
	}
	// Killed coroutines end inside KillProcesses; the wait only absorbs
	// unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d over %d faulted runs", base, runtime.NumGoroutine(), rounds)
}

func TestRunCellsGuardIsolatesFaultyCell(t *testing.T) {
	cells := []Cell{
		{Name: "bad", Spec: livelockSpec()},
		{Name: "good", Spec: namedSpec("good")},
	}
	res, err := RunCells("guarded", cells, RunOptions{Workers: 2, Guard: true})
	if err != nil {
		t.Fatal(err)
	}
	bad, good := res.Cells[0], res.Cells[1]
	if bad.Err == "" || !strings.Contains(bad.Err, "livelock") {
		t.Errorf("bad cell Err = %q, want the livelock fault", bad.Err)
	}
	if bad.Dump == "" {
		t.Error("bad cell has no flight-recorder dump attached")
	}
	if len(bad.Fingerprint) != 16 {
		t.Errorf("bad cell Fingerprint = %q", bad.Fingerprint)
	}
	if good.Err != "" {
		t.Fatalf("good cell failed: %s", good.Err)
	}
	if good.Summary.Refs == 0 {
		t.Error("good cell ran no references")
	}
	if res.Failures() != 1 {
		t.Errorf("Failures() = %d, want 1", res.Failures())
	}
}

func TestRunCellsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []Cell{
		{Name: "a", Spec: namedSpec("a")},
		{Name: "b", Spec: namedSpec("b")},
	}
	res, err := RunCells("cancelled", cells, RunOptions{Workers: 2, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCells error = %v, want context.Canceled", err)
	}
	for _, c := range res.Cells {
		if c.Err == "" {
			t.Errorf("cell %s completed under a cancelled context", c.Name)
		}
	}
}

func TestRunCellsCellDone(t *testing.T) {
	cells := []Cell{
		{Name: "a", Spec: namedSpec("a")},
		{Name: "b", Spec: namedSpec("b")},
	}
	done := make(chan CellResult, len(cells))
	_, err := RunCells("done", cells, RunOptions{
		Workers:  2,
		CellDone: func(cr CellResult) { done <- cr },
	})
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	seen := map[string]bool{}
	for cr := range done {
		if cr.Err != "" {
			t.Errorf("cell %s: %s", cr.Name, cr.Err)
		}
		seen[cr.Name] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("CellDone missed cells: %v", seen)
	}
}
