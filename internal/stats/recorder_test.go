package stats

import "testing"

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder()
	var aborts uint64
	var busy int64
	Register(r, "bus/aborts", &aborts)
	Register(r, "bus/busy-ns", &busy)
	aborts += 5
	busy = 40
	if got := r.Value("bus/aborts"); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	if got := r.Value("bus/busy-ns"); got != 40 {
		t.Errorf("Value = %d, want 40", got)
	}
	if got := r.Value("missing"); got != 0 {
		t.Errorf("unregistered Value = %d, want 0", got)
	}
}

func TestRecorderDuplicatePanics(t *testing.T) {
	r := NewRecorder()
	var a, b uint64
	Register(r, "x", &a)
	defer func() {
		if recover() == nil {
			t.Error("registering a name twice did not panic")
		}
	}()
	Register(r, "x", &b)
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	var x uint64
	Register(r, "x", &x) // must not panic
	if r.Value("x") != 0 {
		t.Error("nil recorder reported a value")
	}
	if r.Snapshot() != nil || r.Group("") != nil {
		t.Error("nil recorder snapshot non-nil")
	}
}

func TestRecorderSnapshotSorted(t *testing.T) {
	r := NewRecorder()
	var z, a, m uint64 = 1, 2, 0
	Register(r, "z", &z)
	Register(r, "a", &a)
	Register(r, "m", &m)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len %d, want 3 (zeros included)", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Errorf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	tbl := r.Table("metrics")
	if len(tbl.Rows) != 2 {
		t.Errorf("table rows %d, want 2 (zeros omitted)", len(tbl.Rows))
	}
}

func TestRecorderGroup(t *testing.T) {
	r := NewRecorder()
	var a, b, c uint64 = 1, 0, 3
	Register(r, "fault/aborts", &a)
	Register(r, "fault/storms", &b)
	Register(r, "check/repairs", &c)
	g := r.Group("fault/")
	if len(g) != 2 || g["aborts"] != 1 || g["storms"] != 0 {
		t.Errorf("Group(fault/) = %v", g)
	}
	if g := r.Group("bus/"); g != nil {
		t.Errorf("Group(bus/) = %v, want nil", g)
	}
}
