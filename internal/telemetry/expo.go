package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Output is deterministic: metrics
// sort by name, family children by label value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	byName := make(map[string]*metric, len(r.metrics))
	for name, m := range r.metrics {
		byName[name] = m
	}
	r.mu.Unlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		writeMetric(&b, byName[name])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeMetric(b *strings.Builder, m *metric) {
	if m.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", m.name, typeName(m.kind))
	switch m.kind {
	case kindCounter:
		fmt.Fprintf(b, "%s %d\n", m.name, m.counter.Value())
	case kindGaugeFunc:
		fmt.Fprintf(b, "%s %s\n", m.name, formatFloat(m.fn()))
	case kindHistogram:
		writeHistogram(b, m.name, m.hist)
	case kindFamily:
		writeFamily(b, m.name, m.family)
	}
}

func typeName(k metricKind) string {
	switch k {
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

func writeHistogram(b *strings.Builder, name string, h *Histogram) {
	cum, total, sum := h.snapshot()
	for i, bound := range h.bounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(sum))
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}

func writeFamily(b *strings.Builder, name string, f *Family) {
	f.mu.Lock()
	values := make([]string, 0, len(f.children))
	for v := range f.children {
		values = append(values, v)
	}
	counts := make(map[string]int64, len(f.children))
	for v, c := range f.children {
		counts[v] = c.Value()
	}
	var overflow int64 = -1
	if f.overflow != nil {
		overflow = f.overflow.Value()
	}
	label := f.label
	f.mu.Unlock()

	sort.Strings(values)
	// %q yields exactly the text-format label escaping: \\, \", \n.
	for _, v := range values {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, v, counts[v])
	}
	if overflow >= 0 {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, OverflowLabel, overflow)
	}
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation that round-trips, no exponent for the
// magnitudes metrics take in practice.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
