package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1", "Page Size", "Elapsed (µs)", "Bus (µs)")
	tb.Add(128, 17.0, 3.5)
	tb.Add(256, 20.25, 6.6)
	tb.Note = "clean victims"
	out := tb.String()
	for _, want := range []string{"Table 1", "Page Size", "128", "20.25", "6.6", "note: clean victims"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows + note.
	if len(lines) != 6 {
		t.Errorf("%d lines, want 6:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "long-column")
	tb.Add("xxxxxxxxxx", 1)
	out := tb.String()
	lines := strings.Split(out, "\n")
	// Header and row must align on the second column.
	hdr := strings.Index(lines[0], "long-column")
	row := strings.Index(lines[2], "1")
	if hdr != row {
		t.Errorf("misaligned: header col at %d, row cell at %d\n%s", hdr, row, out)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		17.0:    "17",
		3.5:     "3.5",
		0.0024:  "0.0024",
		0:       "0",
		-1.25:   "-1.25",
		20.2999: "20.2999",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "x", "y")
	tb.Add(1, 2.5)
	tb.Add(3, 4)
	got := tb.CSV()
	want := "x,y\n1,2.5\n3,4\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestPlotBasics(t *testing.T) {
	var p Plot
	p.Title = "Figure 3"
	p.XLabel = "miss ratio"
	p.YLabel = "performance"
	p.Add("128", []float64{0, 0.01, 0.02}, []float64{1, 0.7, 0.5})
	p.Add("256", []float64{0, 0.01, 0.02}, []float64{1, 0.65, 0.45})
	out := p.String()
	for _, want := range []string{"Figure 3", "* 128", "o 256", "miss ratio", "performance"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("plot has no data marks")
	}
}

func TestPlotEmpty(t *testing.T) {
	p := Plot{Title: "empty"}
	if !strings.Contains(p.String(), "no data") {
		t.Error("empty plot not flagged")
	}
}

func TestPlotSinglePoint(t *testing.T) {
	var p Plot
	p.Add("pt", []float64{5}, []float64{7})
	out := p.String()
	if !strings.Contains(out, "*") {
		t.Errorf("single point not drawn:\n%s", out)
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	var p Plot
	p.Add("flat", []float64{1, 2, 3}, []float64{4, 4, 4})
	out := p.String()
	if out == "" || !strings.Contains(out, "*") {
		t.Errorf("flat series not drawn:\n%s", out)
	}
}

func TestPlotAxisLabels(t *testing.T) {
	var p Plot
	p.Add("s", []float64{0, 10}, []float64{0, 100})
	out := p.String()
	if !strings.Contains(out, "100") || !strings.Contains(out, "10") {
		t.Errorf("axis extremes missing:\n%s", out)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 64)
	for _, v := range []float64{0.5, 1.5, 3, 7, 20, 100} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Errorf("count %d", h.Count())
	}
	if h.Min() != 0.5 || h.Max() != 100 {
		t.Errorf("min/max %v/%v", h.Min(), h.Max())
	}
	if mean := h.Mean(); mean < 21 || mean > 23 {
		t.Errorf("mean %v", mean)
	}
	out := h.String()
	if !strings.Contains(out, "n=6") {
		t.Errorf("render: %s", out)
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 1024)
	for i := 0; i < 100; i++ {
		h.Add(float64(i + 1)) // 1..100
	}
	p50 := h.Percentile(50)
	if p50 < 50 || p50 > 64 { // bucket upper bound containing the median
		t.Errorf("p50 = %v", p50)
	}
	p100 := h.Percentile(100)
	if p100 != 100 {
		t.Errorf("p100 = %v", p100)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 16)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Error("empty histogram stats nonzero")
	}
	if !strings.Contains(h.String(), "empty") {
		t.Error("empty render")
	}
}

func TestHistogramBadRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewHistogram(0, 10)
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Add(1e9)
	if h.Percentile(100) != 1e9 {
		t.Errorf("overflow percentile %v", h.Percentile(100))
	}
}

// scanBucket is the reference bucket choice: a linear scan for the
// first bound v does not exceed.
func scanBucket(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// TestHistogramBucketMatchesScan checks the O(1) bucket choice against
// the linear scan on every bound and both of its float neighbours, 0,
// negative and non-finite values, values past hi and a sweep between,
// for the two geometries in use (0.5–4096 µs, 1–1024 µs), two whose hi
// breaks the doubling, and one whose subnormal lo makes the exponent
// guess fall many buckets short.
func TestHistogramBucketMatchesScan(t *testing.T) {
	for _, g := range [][2]float64{{0.5, 4096}, {1, 1024}, {1, 100}, {0.3, 50}, {math.SmallestNonzeroFloat64, 1}} {
		h := NewHistogram(g[0], g[1])
		vals := []float64{0, math.Copysign(0, -1), -1, math.Inf(-1), math.NaN(), math.Inf(1),
			g[1] * 1.5, g[1] * 1e9, math.MaxFloat64, math.SmallestNonzeroFloat64}
		for _, b := range h.bounds {
			vals = append(vals, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), b*0.75, b*1.5)
		}
		step := math.Exp((math.Log(g[1]) - math.Log(g[0])) / 3000)
		for k, v := 0, g[0]; k < 3300; k, v = k+1, v*step {
			vals = append(vals, v)
		}
		for _, v := range vals {
			if got, want := h.bucket(v), scanBucket(h.bounds, v); got != want {
				t.Errorf("NewHistogram(%v, %v): bucket(%v) = %d, the scan gives %d", g[0], g[1], v, got, want)
			}
		}
	}
}
