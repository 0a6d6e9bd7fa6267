package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator or of vmpd sees, measured
// with tracing off. Every workload reports every one of them; README.md
// gives each its meaning per workload kind. The bounds are set from
// the spread of 10-invocation sets measured on a shared 2-CPU host
// (README.md).
var endToEnd = []metricDef{
	{"throughput", "1/s", "higher", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports: counts from the run's own
// counters, isolated per-op host costs (*_ns), harness spans (*_s) and
// the host-time ledger built from them. A layer the workload does not
// use reports 0.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.handoff_ns", "ns", "lower", 0},
	{"sim.schedule_fire_ns", "ns", "lower", 0},
	{"sim.ledger_s", "s", "lower", 0},
	{"cache.hits", "count", "higher", 0},
	{"cache.fills", "count", "lower", 0},
	{"cache.hit_frac", "ratio", "higher", 0},
	{"cache.lookup_ns", "ns", "lower", 0},
	{"cache.ledger_s", "s", "lower", 0},
	{"core.refs", "count", "higher", 0},
	{"core.retries", "count", "lower", 0},
	{"core.retry_frac", "ratio", "lower", 0},
	{"core.intr_words", "count", "lower", 0},
	{"core.hit_ns", "ns", "lower", 0},
	{"core.miss_ns", "ns", "lower", 0},
	{"core.ledger_s", "s", "lower", 0},
	{"core.new_machine_s", "s", "lower", 0},
	{"core.prefault_s", "s", "lower", 0},
	{"core.run_s", "s", "lower", 0},
	{"core.check_s", "s", "lower", 0},
	{"bus.tx", "count", "lower", 0},
	{"bus.aborts", "count", "lower", 0},
	{"bus.abort_frac", "ratio", "lower", 0},
	{"bus.util_pct", "%", "lower", 0},
	{"bus.tx_ns", "ns", "lower", 0},
	{"bus.link_crossings", "count", "lower", 0},
	{"bus.filtered_local", "count", "higher", 0},
	{"bus.frame_waits", "count", "lower", 0},
	{"bus.cross_tx_ns", "ns", "lower", 0},
	{"monitor.checks", "count", "lower", 0},
	{"monitor.interrupts", "count", "lower", 0},
	{"monitor.check_ns", "ns", "lower", 0},
	{"copier.transfers", "count", "lower", 0},
	{"copier.aborted", "count", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},
	{"serve.cache_hits", "count", "higher", 0},
	{"serve.computed", "count", "higher", 0},
	{"serve.determinism_mismatches", "count", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.job_run_ms", "ms", "lower", 0},
	{"serve.store_put_ms", "ms", "lower", 0},
	{"serve.store_get_ns", "ns", "lower", 0},
	{"serve.pagesweep.cold_ms", "ms", "lower", 0},
	{"serve.pagesweep.warm_ms", "ms", "lower", 0},
	{"serve.topology.cold_ms", "ms", "lower", 0},
	{"serve.topology.warm_ms", "ms", "lower", 0},
	{"ledger.predicted_s", "s", "lower", 0},
	{"ledger.residual_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// sample is one reported value and the number of measurements behind
// it (1 for a count or a single span).
type sample struct {
	Value float64
	N     int
}

// report collects one invocation's outcome: operations attempted and
// failed, the first few failure reasons, and the metric values.
type report struct {
	Attempted, Failed int
	failures          []string
	values            map[string]sample
}

func newReport() *report { return &report{values: make(map[string]sample)} }

func (r *report) set(name string, v float64, n int) { r.values[name] = sample{v, n} }

// op records one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.Attempted++
	if err == nil {
		return
	}
	r.Failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, err.Error())
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints one line per metric in defs (value, unit, sample count,
// direction and bound), the failure reasons, and last the one-line JSON
// result. A metric in defs that the run did not produce is a harness
// bug and an error.
func (r *report) write(w io.Writer, defs []metricDef) error {
	res := jsonResult{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		s, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, s.Value)
		}
		bound := "none"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%g%%", 100*d.Bound)
		}
		fmt.Fprintf(w, "metric %-30s %14.6g %-6s samples=%-6d better=%-6s bound=%s\n",
			d.Name, s.Value, d.Unit, s.N, d.Better, bound)
		res.Metrics[d.Name] = jsonMetric{s.Value, d.Unit}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return frac(s, float64(len(xs)))
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
