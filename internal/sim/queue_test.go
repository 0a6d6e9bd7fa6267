package sim

import "testing"

// queueTick is the fixed delay the queue reference test draws among
// its others, as a machine's reference time is.
const queueTick = 7

// queuedCall is the reference model's record of one Schedule or At
// call: the event fires at at, and calls to the same instant fire in
// seq order.
type queuedCall struct {
	at  Time
	seq uint64
	id  int
}

// TestQueueMatchesReference drives the engine's queue from inside its
// own events. Seeded draws schedule with delays taken from {0, the
// tick, 1–20, ≥1000}, by Schedule and by At, now and then in a burst
// of one delay, and mixes in Run, RunUntil with deadlines (some
// exactly at a pending event's time), Stop, the cancel probe and
// scheduling from outside the loop. Every firing (now, id) must be the
// reference's next call in (at, seq) order; after each return the
// clock and Pending must agree with the reference, and at the end the
// metrics must count every call and the reference's high-water mark.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		checkQueueAgainstReference(t, seed)
	}
}

func checkQueueAgainstReference(t *testing.T, seed uint64) {
	e := NewEngine()
	e.SetTick(queueTick)
	r := NewRand(seed)
	var pending []queuedCall // scheduled and not yet fired
	var seq uint64
	budget := 4000 // calls left to make
	stopped := false
	var lastFired Time
	maxDepth := 0
	if seed%2 == 1 {
		// The cancel probe ends a run as Stop does.
		e.SetCancelCheck(1+seed%5, func() bool {
			stopped = stopped || r.Intn(60) == 0
			return stopped
		})
	}

	delay := func() Time {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return queueTick
		case 2:
			return 1 + Time(r.Intn(20))
		default:
			return 1000 + Time(r.Intn(1000))
		}
	}
	var fire func(id int) func()
	schedule := func(d Time) {
		seq++
		id := int(seq)
		pending = append(pending, queuedCall{e.Now() + d, seq, id})
		maxDepth = max(maxDepth, len(pending))
		budget--
		if r.Intn(2) == 0 {
			e.Schedule(d, fire(id))
		} else {
			e.At(e.Now()+d, fire(id))
		}
	}
	fire = func(id int) func() {
		return func() {
			k := 0
			for i, c := range pending {
				if c.at < pending[k].at || (c.at == pending[k].at && c.seq < pending[k].seq) {
					k = i
				}
			}
			want := pending[k]
			pending = append(pending[:k], pending[k+1:]...)
			if id != want.id || e.Now() != want.at {
				t.Fatalf("seed %d: fired call %d at %v, want call %d at %v", seed, id, e.Now(), want.id, want.at)
			}
			lastFired = e.Now()
			for n := r.Intn(3); n > 0 && budget > 0; n-- {
				schedule(delay())
			}
			// A burst of one delay grows its queue past a lane's
			// first ring, whose head has by then wrapped.
			if r.Intn(100) == 0 {
				d := delay()
				for n := 70; n > 0 && budget > 0; n-- {
					schedule(d)
				}
			}
			if r.Intn(40) == 0 {
				stopped = true
				e.Stop()
			}
		}
	}

	for budget > 0 || len(pending) > 0 {
		for n := r.Intn(4); n > 0 && budget > 0; n-- {
			schedule(delay())
		}
		stopped = false
		if r.Intn(4) == 0 {
			e.Run()
			if !stopped && len(pending) != 0 {
				t.Fatalf("seed %d: Run returned with %d calls pending and no Stop", seed, len(pending))
			}
			if stopped && e.Now() != lastFired {
				t.Fatalf("seed %d: stopped at %v, the last event fired at %v", seed, e.Now(), lastFired)
			}
		} else {
			deadline := e.Now() + Time(r.Intn(30))
			if len(pending) > 0 && r.Intn(3) == 0 {
				deadline = pending[r.Intn(len(pending))].at
			}
			e.RunUntil(deadline)
			if stopped {
				if e.Now() != lastFired {
					t.Fatalf("seed %d: stopped at %v, the last event fired at %v", seed, e.Now(), lastFired)
				}
			} else {
				if e.Now() != deadline {
					t.Fatalf("seed %d: RunUntil(%v) returned at %v", seed, deadline, e.Now())
				}
				for _, c := range pending {
					if c.at <= deadline {
						t.Fatalf("seed %d: RunUntil(%v) left call %d due at %v", seed, deadline, c.id, c.at)
					}
				}
			}
		}
		if e.Pending() != len(pending) {
			t.Fatalf("seed %d: Pending() = %d, reference has %d", seed, e.Pending(), len(pending))
		}
	}
	m := e.Metrics()
	if m.EventsScheduled != seq || m.EventsFired != seq || m.MaxQueueDepth != maxDepth {
		t.Fatalf("seed %d: scheduled %d, fired %d, max depth %d; want %d, %d and %d",
			seed, m.EventsScheduled, m.EventsFired, m.MaxQueueDepth, seq, seq, maxDepth)
	}
}
