package experiments

import (
	"errors"
	"os"
	"strings"
	"testing"

	"vmp/internal/fault"
	"vmp/internal/sim"
)

func TestIDsAndDescribeAgree(t *testing.T) {
	ids := IDs()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	desc := Describe()
	for _, id := range ids {
		if desc[id] == "" {
			t.Errorf("no description for %s", id)
		}
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nonsense", DefaultOptions()); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestResultString(t *testing.T) {
	r, err := Run("fig2", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"== fig2", "Transaction", "paper:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Result.String missing %q", want)
		}
	}
}

func TestFigure1Renders(t *testing.T) {
	r, err := Run("fig1", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"bus monitor", "bus isolator", "VMEbus", "cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestOptionsTraceLen(t *testing.T) {
	if (Options{Quick: true}).traceLen() >= (Options{}).traceLen() {
		t.Error("quick trace not shorter")
	}
	if DefaultOptions().Seed == 0 {
		t.Error("default seed zero")
	}
}

// Determinism guard: the same options must produce byte-identical
// results for every experiment (the simulator's core promise).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep in -short mode")
	}
	for _, id := range []string{"table1", "fig3", "locks", "alias", "workqueue", "spinfair"} {
		id := id
		t.Run(id, func(t *testing.T) {
			o := Options{Quick: true, Seed: 7}
			a, err := Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(id, o)
			if err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Errorf("nondeterministic output for %s", id)
			}
		})
	}
}

// TestRunOneContainsSimulatorFault checks that a simulator fault
// becomes its experiment's error. At abort=0.02 the locks ablation's
// two-board spin lock reaches the retry hard limit, the designed
// livelock fault, which panics. runOne must name the experiment and
// the livelock, keep the faulting process's stack reachable, end the
// faulted machine's processes, and leave the flight recorder's dump on
// stderr, where the sink writes it.
func TestRunOneContainsSimulatorFault(t *testing.T) {
	o := DefaultOptions()
	o.Quick = true
	var err error
	if o.Faults, err = fault.Parse("abort=0.02"); err != nil {
		t.Fatal(err)
	}
	e, _ := Lookup("locks")
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = stderr
	tr := &engineTrack{}
	res, err := runOne(e, o, tr)
	os.Stderr = saved
	if err == nil || !strings.HasPrefix(err.Error(), "locks: simulator fault: ") || !strings.Contains(err.Error(), "livelocked") {
		t.Fatalf("runOne = %v, %v; want the locks livelock as an error", res, err)
	}
	var pp *sim.ProcessPanic
	if !errors.As(err, &pp) || len(pp.Stack) == 0 {
		t.Errorf("errors.As(%v) reaches no process stack", err)
	}
	if n := tr.live.Live(); n != 0 {
		t.Errorf("%d processes of the faulted machine still live", n)
	}
	dump, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "FLIGHT RECORDER DUMP: livelock") {
		t.Errorf("no flight-recorder dump on stderr:\n%.500s", dump)
	}
}

// TestRunOneRaisesRunnerBug checks that runOne contains only simulator
// faults: a runner's own panic is raised again, so it prints its
// trace.
func TestRunOneRaisesRunnerBug(t *testing.T) {
	e := &Experiment{ID: "bug", Run: func(Options) (*Result, error) { panic("runner bug") }}
	defer func() {
		if r := recover(); r != "runner bug" {
			t.Errorf("recovered %v, want the runner's own panic", r)
		}
	}()
	res, err := runOne(e, DefaultOptions(), &engineTrack{})
	t.Errorf("runOne = %v, %v; want a panic", res, err)
}
