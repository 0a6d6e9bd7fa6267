package sim

import (
	"testing"

	"vmp/internal/stats"
)

func TestEngineMetrics(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i*10), func() {})
	}
	e.Run()
	m := e.Metrics()
	if m.EventsFired != 5 {
		t.Errorf("EventsFired = %d, want 5", m.EventsFired)
	}
	if m.EventsScheduled != 5 {
		t.Errorf("EventsScheduled = %d, want 5", m.EventsScheduled)
	}
	if m.MaxQueueDepth != 5 {
		t.Errorf("MaxQueueDepth = %d, want 5", m.MaxQueueDepth)
	}
	if m.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", m.Wall)
	}
	if m.SimNsPerWallMs(e.Now()) <= 0 {
		t.Errorf("SimNsPerWallMs = %v, want > 0", m.SimNsPerWallMs(e.Now()))
	}
}

// TestEngineMetricsSwitches counts one switch per resumption of a
// process: its first step and each Delay's wake.
func TestEngineMetricsSwitches(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Process) {
		for i := 0; i < 3; i++ {
			p.Delay(1)
		}
	})
	e.Schedule(2, func() {})
	e.Run()
	m := e.Metrics()
	if m.Switches != 4 || m.EventsFired != 5 {
		t.Errorf("Switches = %d, EventsFired = %d, want 4 and 5", m.Switches, m.EventsFired)
	}
}

func TestEngineMetricsNestedDepth(t *testing.T) {
	e := NewEngine()
	// One event that fans out into 10: the high-water mark is observed
	// while the fan-out is queued.
	e.Schedule(1, func() {
		for i := 0; i < 10; i++ {
			e.Schedule(Time(i), func() {})
		}
	})
	e.Run()
	m := e.Metrics()
	if m.EventsFired != 11 {
		t.Errorf("EventsFired = %d, want 11", m.EventsFired)
	}
	if m.MaxQueueDepth != 10 {
		t.Errorf("MaxQueueDepth = %d, want 10", m.MaxQueueDepth)
	}
}

// TestEnginePoolReuse drives enough schedule/fire cycles through a small
// queue that pooled events must be recycled, and checks ordering is
// still exact (a stale field in a recycled event would break it).
func TestEnginePoolReuse(t *testing.T) {
	e := NewEngine()
	var fired []Time
	n := 10 * eventChunkSize
	var tick func()
	i := 0
	tick = func() {
		fired = append(fired, e.Now())
		i++
		if i < n {
			e.Schedule(3, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d, want %d", len(fired), n)
	}
	for k, at := range fired {
		if at != Time(3*k) {
			t.Fatalf("event %d at %v, want %v", k, at, Time(3*k))
		}
	}
	if e.Metrics().EventsFired != uint64(n) {
		t.Errorf("EventsFired = %d, want %d", e.Metrics().EventsFired, n)
	}
}

func TestEngineRecorder(t *testing.T) {
	e := NewEngine()
	rec := e.Recorder()
	if rec == nil {
		t.Fatal("nil recorder")
	}
	if e.Recorder() != rec {
		t.Error("Recorder not stable across calls")
	}
	var x uint64
	stats.Register(rec, "x", &x)
	x++
	if rec.Value("x") != 1 {
		t.Error("recorder lost a count")
	}
	// Two engines never share a sink.
	if NewEngine().Recorder() == rec {
		t.Error("engines share a recorder")
	}
}
