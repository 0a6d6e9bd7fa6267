package stats

import (
	"sort"
	"strings"
)

// Recorder is a per-run index of named counters. Every simulation run
// owns exactly one Recorder (reachable through its engine). Each
// component of that run — bus, caches, monitors, copiers, boards, the
// fault injector and the watchdog — keeps its counters as plain fields
// that its code increments directly, and registers each field here once,
// under its name, at construction. Counting costs a field increment;
// the Recorder reads the fields only when a run is summarized.
//
// A Recorder is confined to its run: it is not safe for concurrent use
// from multiple goroutines, which is exactly the discipline the
// simulator already imposes (one engine, one event loop). Separate runs
// use separate Recorders and may proceed in parallel.
type Recorder struct {
	fields map[string]func() int64
}

// NewRecorder returns an empty index.
func NewRecorder() *Recorder {
	return &Recorder{fields: make(map[string]func() int64)}
}

// Register indexes the counter field p under name. Registering a name
// twice is a wiring bug and panics. Registering in a nil Recorder does
// nothing: the field still counts, it is only not indexed.
func Register[T ~uint64 | ~int64](r *Recorder, name string, p *T) {
	if r == nil {
		return
	}
	if _, dup := r.fields[name]; dup {
		panic("stats: counter " + name + " registered twice")
	}
	r.fields[name] = func() int64 { return int64(*p) }
}

// Value returns the current value of a named counter, or 0 if no
// counter has that name.
func (r *Recorder) Value(name string) int64 {
	if r == nil {
		return 0
	}
	if f, ok := r.fields[name]; ok {
		return f()
	}
	return 0
}

// Metric is one named measurement in a snapshot.
type Metric struct {
	Name  string
	Value int64
}

// Snapshot returns every registered counter, sorted by name, so two
// identical runs render identical summaries.
func (r *Recorder) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.fields))
	for name, f := range r.fields {
		out = append(out, Metric{Name: name, Value: f()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Group returns the counters whose names start with prefix, keyed by
// the rest of the name, or nil when none is registered.
func (r *Recorder) Group(prefix string) map[string]int64 {
	var g map[string]int64
	for _, m := range r.Snapshot() {
		if rest, ok := strings.CutPrefix(m.Name, prefix); ok {
			if g == nil {
				g = make(map[string]int64)
			}
			g[rest] = m.Value
		}
	}
	return g
}

// Table renders a snapshot as a two-column table, omitting zero-valued
// metrics (components register eagerly, so most runs touch only a
// subset).
func (r *Recorder) Table(title string) *Table {
	t := NewTable(title, "Metric", "Value")
	for _, m := range r.Snapshot() {
		if m.Value != 0 {
			t.Add(m.Name, m.Value)
		}
	}
	return t
}
