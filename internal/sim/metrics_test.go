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

// TestEngineLongRunOrder drives many schedule/fire cycles through a
// short queue, once through the heap and once through the tick lane,
// whose ring wraps around many times, and checks that every event fires
// at its exact time.
func TestEngineLongRunOrder(t *testing.T) {
	for _, tick := range []Time{0, 3} {
		e := NewEngine()
		e.SetTick(tick)
		var fired []Time
		const n = 1280
		var step func()
		i := 0
		step = func() {
			fired = append(fired, e.Now())
			i++
			if i < n {
				e.Schedule(3, step)
			}
		}
		e.Schedule(0, step)
		e.Run()
		if len(fired) != n {
			t.Fatalf("tick %d: fired %d, want %d", tick, len(fired), n)
		}
		for k, at := range fired {
			if at != Time(3*k) {
				t.Fatalf("tick %d: event %d at %v, want %v", tick, k, at, Time(3*k))
			}
		}
		if e.Metrics().EventsFired != n {
			t.Errorf("tick %d: EventsFired = %d, want %d", tick, e.Metrics().EventsFired, n)
		}
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
