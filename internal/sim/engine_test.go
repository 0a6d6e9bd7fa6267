package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.Schedule(5, func() { trace = append(trace, "c") })
		e.Schedule(0, func() { trace = append(trace, "b") })
	})
	end := e.Run()
	if end != 15 {
		t.Errorf("final time %v, want 15", end)
	}
	want := "abc"
	var s string
	for _, x := range trace {
		s += x
	}
	if s != want {
		t.Errorf("order %q, want %q", s, want)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Errorf("fired %d events by t=20, want 2", fired)
	}
	if e.Now() != 20 {
		t.Errorf("now %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 || e.Now() != 30 {
		t.Errorf("after Run: fired=%d now=%v", fired, e.Now())
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Errorf("now %v, want 1000", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10, func() { fired++; e.Stop() })
	e.Schedule(20, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Errorf("fired %d, want 1 (Stop should halt the loop)", fired)
	}
	// Run again resumes with the remaining event.
	e.Run()
	if fired != 2 {
		t.Errorf("fired %d after resume, want 2", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func() {})
}

// Property: for any multiset of delays, events fire in sorted order and
// the final clock equals the maximum delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if len(fired) != len(delays) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		if len(want) > 0 && end != want[len(want)-1] {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2500000, "2.500ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// TestEngineClockNeverRunsBackwards pins the clock after RunUntil
// returns early: a Stop leaves it at the stopping event, not at the
// deadline ahead of the events still queued, and a deadline already
// past leaves it where it is.
func TestEngineClockNeverRunsBackwards(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()); e.Stop() })
	e.Schedule(20, func() { fired = append(fired, e.Now()) })
	if now := e.RunUntil(50); now != 10 {
		t.Fatalf("RunUntil(50) stopped at %v, want 10", now)
	}
	if now := e.RunUntil(5); now != 10 {
		t.Fatalf("RunUntil(5) after t=10 returned %v, want 10", now)
	}
	e.Schedule(0, func() { fired = append(fired, e.Now()); e.Stop() })
	if now := e.RunUntil(50); now != 10 {
		t.Fatalf("Stop by the only event left the clock at %v, want 10", now)
	}
	e.RunUntil(50)
	if want := []Time{10, 10, 20}; len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if e.Now() != 50 {
		t.Fatalf("drained RunUntil(50) left the clock at %v", e.Now())
	}
}

func TestSetTickWithTickEventsQueuedPanics(t *testing.T) {
	e := NewEngine()
	e.SetTick(5)
	e.Schedule(5, func() {})
	defer func() {
		if recover() == nil {
			t.Error("SetTick with a tick event queued did not panic")
		}
	}()
	e.SetTick(7)
}
