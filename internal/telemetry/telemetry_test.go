package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vmp_test_total", "help")
	c.Add(3)
	c.Inc()
	c.Add(-10) // counters are monotonic: negative deltas ignored
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	// Idempotent registration returns the same handle.
	if r.Counter("vmp_test_total", "help") != c {
		t.Fatal("re-registering a counter must return the same handle")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("vmp_dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.GaugeFunc("vmp_dup", "", func() float64 { return 0 })
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "has space", "1leading", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("vmp_lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 102.65; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Upper bounds are inclusive: 0.1 lands in le="0.1".
	for _, line := range []string{
		`vmp_lat_seconds_bucket{le="0.1"} 2`,
		`vmp_lat_seconds_bucket{le="1"} 3`,
		`vmp_lat_seconds_bucket{le="10"} 4`,
		`vmp_lat_seconds_bucket{le="+Inf"} 5`,
		`vmp_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q in:\n%s", line, out)
		}
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic")
		}
	}()
	r.Histogram("vmp_bad", "", []float64{1, 1})
}

func TestExpositionDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in scrambled order; exposition must still sort.
		r.GaugeFunc("vmp_z_gauge", "z help", func() float64 { return 7 })
		r.Counter("vmp_a_total", "a help")
		r.Histogram("vmp_m_seconds", "m help", []float64{0.5})
		f := r.CounterFamily("vmp_f_total", "f help", "client")
		f.WithLabel("beta").Add(2)
		f.WithLabel("alpha").Inc()
		r.GaugeFunc("vmp_live", "live", func() float64 { return 2.5 })
		return r
	}
	var a, b strings.Builder
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	out := a.String()
	// Names must appear in sorted order.
	order := []string{"vmp_a_total", "vmp_f_total", "vmp_live", "vmp_m_seconds", "vmp_z_gauge"}
	last := -1
	for _, name := range order {
		i := strings.Index(out, "# TYPE "+name+" ")
		if i < 0 {
			t.Fatalf("missing %s in:\n%s", name, out)
		}
		if i < last {
			t.Fatalf("%s out of order in:\n%s", name, out)
		}
		last = i
	}
	// Family children sort by label value.
	ia, ib := strings.Index(out, `client="alpha"`), strings.Index(out, `client="beta"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("family children unsorted in:\n%s", out)
	}
	if !strings.Contains(out, "# HELP vmp_a_total a help\n") {
		t.Fatalf("missing HELP line in:\n%s", out)
	}
}

func TestFamilyOverflow(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("vmp_clients_total", "", "client")
	for i := 0; i < maxFamilyChildren; i++ {
		f.WithLabel(fmt.Sprintf("c%03d", i)).Inc()
	}
	// Past the cap, distinct unseen labels share the overflow child.
	o1 := f.WithLabel("late-1")
	o2 := f.WithLabel("late-2")
	if o1 != o2 {
		t.Fatal("overflow labels must share one child")
	}
	o1.Inc()
	o2.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `client="~other"} 2`) {
		t.Fatalf("missing overflow row in:\n%s", sb.String())
	}
	// Existing children keep their identity after the cap hits.
	if f.WithLabel("c000") == o1 {
		t.Fatal("existing child must not collapse into overflow")
	}
}

func TestSpanRecorder(t *testing.T) {
	epoch := time.Unix(1000, 0)
	sr := NewSpanRecorder(epoch)
	sr.Record("job", "queue", epoch.Add(time.Millisecond), epoch.Add(3*time.Millisecond), "")
	// Pre-epoch start clamps; end<start collapses to an instant.
	sr.Record("job", "weird", epoch.Add(-time.Second), epoch.Add(-2*time.Second), "x")
	sr.Mark("cells", "done", epoch.Add(5*time.Millisecond), "fp")
	spans := sr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Start != time.Millisecond || spans[0].Dur != 2*time.Millisecond {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Start != 0 || spans[1].Dur != 0 {
		t.Fatalf("clamped span = %+v", spans[1])
	}
	if spans[2].Dur != 0 || spans[2].Note != "fp" {
		t.Fatalf("mark = %+v", spans[2])
	}
	// Spans() returns a copy.
	spans[0].Name = "mutated"
	if sr.Spans()[0].Name != "queue" {
		t.Fatal("Spans must return a copy")
	}
}

func TestSpanRecorderBound(t *testing.T) {
	epoch := time.Unix(1000, 0)
	sr := NewSpanRecorder(epoch)
	for i := 0; i < maxRecordedSpans+100; i++ {
		sr.Mark("t", "m", epoch, "")
	}
	if got := len(sr.Spans()); got != maxRecordedSpans {
		t.Fatalf("recorder grew to %d, cap is %d", got, maxRecordedSpans)
	}
}

// TestConcurrentUpdates exercises every handle type from many
// goroutines; run under -race this is the counter-race regression test
// for the /statsz migration.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vmp_c_total", "")
	h := r.Histogram("vmp_h_seconds", "", []float64{0.5, 1})
	f := r.CounterFamily("vmp_f_total", "", "client")

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := f.WithLabel(fmt.Sprintf("w%d", w%3))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%3) * 0.6)
				child.Inc()
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var famTotal int64
	for w := 0; w < 3; w++ {
		famTotal += f.WithLabel(fmt.Sprintf("w%d", w)).Value()
	}
	if famTotal != workers*perWorker {
		t.Fatalf("family total = %d, want %d", famTotal, workers*perWorker)
	}
}

// TestHotPathZeroAlloc pins the zero-alloc guarantee the CI perf gate
// relies on: Counter.Add/Inc and Histogram.Observe must not allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vmp_hot_total", "")
	h := r.Histogram("vmp_hot_seconds", "", nil)
	checks := []struct {
		name string
		fn   func()
	}{
		{"counter-add", func() { c.Add(1) }},
		{"counter-inc", func() { c.Inc() }},
		{"histogram-observe", func() { h.Observe(0.42) }},
	}
	for _, chk := range checks {
		if allocs := testing.AllocsPerRun(1000, chk.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", chk.name, allocs)
		}
	}
}
