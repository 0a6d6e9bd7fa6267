// Package telemetry is the service-side metrics subsystem: atomic
// counters, gauges read at scrape time, fixed-bucket histograms, and a
// deterministic registry that exposes everything in Prometheus text
// format. It is the serving layer's analogue of internal/obs — where
// obs measures the *simulated* machine on the simulated clock,
// telemetry measures the *service* (vmpd) on the host clock: admission
// decisions, queue waits, run durations, store latencies.
//
// Telemetry has no off mode: every handle comes from a Registry, and
// call sites update it directly. Its cost is counted instead: serve's
// overhead guard multiplies the updates a job makes by each update's
// measured cost.
//
// Counter.Add and Histogram.Observe never allocate (pinned by the perf
// suite's telemetry micros and the CI allocs gate), so instrumenting a
// hot loop cannot introduce GC pressure.
//
// Exposition is deterministic: metrics render sorted by name, label
// children sorted by label value, so two registries holding the same
// values produce byte-identical /metricsz bodies.
//
// The package depends only on the standard library.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; counters are created through Registry.Counter so they appear
// in the exposition.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative deltas are ignored —
// counters only go up).
//
//vmplint:hotpath
func (c *Counter) Add(n int64) {
	if n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
//
//vmplint:hotpath
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	return c.v.Load()
}

// Histogram accumulates observations into fixed buckets chosen at
// construction. Observe is lock-free and allocation-free: per-bucket
// atomic counters plus an atomic float-bits sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// DefBuckets are the default latency buckets in seconds, 1 ms to 60 s,
// shaped for service-side queue waits and job runs.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// StorePutBuckets are finer buckets, 100 µs to 1 s, for fsync-bound
// store writes that mostly land under a millisecond.
var StorePutBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 1,
}

// Observe records one value.
//
//vmplint:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// ObserveSince records the elapsed host time since start, in seconds.
//
//vmplint:hotpath
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sum.Load())
}

// snapshot reads a consistent-enough view for exposition: cumulative
// bucket counts, total and sum. (Metrics scrapes tolerate the usual
// monotonic skew between concurrently updated atomics.)
func (h *Histogram) snapshot() (cum []int64, total int64, sum float64) {
	cum = make([]int64, len(h.counts))
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return cum, total, h.Sum()
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
	kindFamily
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindFamily:
		return "counter family"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// metric is one registered entry.
type metric struct {
	name string
	help string
	kind metricKind

	counter *Counter
	fn      func() float64
	hist    *Histogram
	family  *Family
}

// Registry holds named metrics and renders them deterministically.
// Constructors are idempotent: asking for an existing name of the same
// kind returns the same handle; re-registering a name as a different
// kind panics (a programming error, like a duplicate flag).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register adds or revalidates an entry under the lock.
func (r *Registry) register(name, help string, kind metricKind, build func() *metric) *metric {
	validateName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %q already registered as %s, requested %s", name, m.kind, kind))
		}
		return m
	}
	m := build()
	m.name, m.help, m.kind = name, help, kind
	r.metrics[name] = m
	return m
}

// Counter registers (or returns) the counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	}).counter
}

// GaugeFunc registers a gauge whose value is read from fn at
// exposition time — for values that already live somewhere (queue
// depth, tracked clients) and would otherwise need double bookkeeping.
// fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGaugeFunc, func() *metric {
		return &metric{fn: fn}
	})
}

// Histogram registers (or returns) the histogram with this name.
// bounds are ascending upper bucket bounds; nil selects DefBuckets. An
// implicit +Inf bucket is always present.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, func() *metric {
		bs := bounds
		if len(bs) == 0 {
			bs = DefBuckets
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending at %v", name, bs[i]))
			}
		}
		h := &Histogram{bounds: append([]float64(nil), bs...)}
		h.counts = make([]atomic.Int64, len(bs)+1)
		return &metric{hist: h}
	}).hist
}

// maxFamilyChildren bounds a family's label cardinality: past it new
// label values collapse into the shared overflow child, so an
// adversary cycling client ids cannot grow the exposition without
// bound.
const maxFamilyChildren = 256

// OverflowLabel is the label value charged once a family is full.
const OverflowLabel = "~other"

// Family is a set of counters sharing one name and distinguished by a
// single label (e.g. per-client shed counts). Children are created on
// demand, bounded by maxFamilyChildren.
type Family struct {
	label string

	mu       sync.Mutex
	children map[string]*Counter
	overflow *Counter
}

// CounterFamily registers (or returns) a labeled counter family.
func (r *Registry) CounterFamily(name, help, label string) *Family {
	validateName(label)
	return r.register(name, help, kindFamily, func() *metric {
		return &metric{family: &Family{label: label, children: make(map[string]*Counter)}}
	}).family
}

// WithLabel returns the child counter for one label value, creating it
// on first use. Past the cardinality bound every unseen value shares
// the overflow child. Label lookup takes a mutex — resolve the child
// once and reuse the handle on genuinely hot paths.
func (f *Family) WithLabel(value string) *Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	if len(f.children) >= maxFamilyChildren {
		if f.overflow == nil {
			f.overflow = &Counter{}
		}
		return f.overflow
	}
	c := &Counter{}
	f.children[value] = c
	return c
}

// validateName enforces the Prometheus metric/label name charset.
func validateName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
	}
}
