package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vmp/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden.json from full-size runs")

// goldenSeeds is how many seeds, from 1, golden.json pins per workload.
const goldenSeeds = 40

// small shrinks a workload's simulations, and the grids it submits, so
// that a test stays fast.
func small(w workload) workload {
	w.Sim.Refs /= 50
	w.Grids = append([]grid(nil), w.Grids...)
	for i := range w.Grids {
		w.Grids[i].Grid.Base.Workload.Refs /= 50
	}
	return w
}

func simWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		if w.Grids == nil {
			out = append(out, w)
		}
	}
	return out
}

// TestStagedMatchesScenarioRun pins what the traced run relies on: the
// staged path builds the same simulation as scenario.Run.
func TestStagedMatchesScenarioRun(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		spec := w.Sim.spec(w.Name, 11)
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		st, err := prepare(spec, newTracer(), 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := st.runAndCheck(context.Background()); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got, want := machineCounts(st.m), machineCounts(res.Machine); got != want {
			t.Errorf("%s: staged counts\n%+v\nscenario.Run counts\n%+v", w.Name, got, want)
		}
		if st.refs != int(res.Summary.Refs) {
			t.Errorf("%s: staged path replayed %d refs, scenario.Run %d", w.Name, st.refs, res.Summary.Refs)
		}
	}
}

// TestGoldenDigests checks that every full-size simulator run the
// benchmark is likely to make has a pinned digest, and that seed 11
// still reproduces its pin. With -update it rewrites golden.json.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-size simulations")
	}
	if *update {
		writeGoldens(t)
	}
	c, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range simWorkloads() {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			if !c.pinned(w.Sim.spec(w.Name, seed)) {
				t.Errorf("%s seed %d has no golden digest; run with -update", w.Name, seed)
			}
		}
		spec := w.Sim.spec(w.Name, 11)
		res, err := scenario.Run(spec)
		if err := c.run(res, err); err != nil {
			t.Error(err)
		}
	}
}

func writeGoldens(t *testing.T) {
	pins := make(map[string]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan scenario.Spec)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range work {
				res, err := scenario.Run(spec)
				if err != nil {
					t.Error(err)
					continue
				}
				d, err := digest(res.Summary)
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				pins[res.Fingerprint] = d
				mu.Unlock()
			}
		}()
	}
	for _, w := range simWorkloads() {
		for seed := uint64(1); seed <= goldenSeeds; seed++ {
			work <- w.Sim.spec(w.Name, seed)
		}
	}
	close(work)
	wg.Wait()
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	goldenJSON = b
}

// runOnce measures w the way main does and returns the report and the
// JSON result line.
func runOnce(t *testing.T, w workload, o options, traced bool) (*report, jsonResult) {
	t.Helper()
	r, defs, err := measure(context.Background(), w, o, traced, io.Discard)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
	}
	var buf bytes.Buffer
	if err := r.write(&buf, defs); err != nil {
		t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s traced=%v: correct=%v failed=%d/%d: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, r.failures)
	}
	want := names(defs)
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s traced=%v: metrics\n%v\nwant\n%v", w.Name, traced, got, want)
	}
	return r, res
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// TestServeMixedSmoke runs shrunk serve-mixed sessions, untraced and
// traced: nothing fails, every metric is emitted, and the daemon
// computed each cell once and answered it once from its store.
func TestServeMixedSmoke(t *testing.T) {
	w, _ := findWorkload("serve-mixed")
	w = small(w)
	o := options{Seed: 11, Seconds: time.Second, MaxOps: 3, WorkDir: t.TempDir()}
	for _, traced := range []bool{false, true} {
		_, res := runOnce(t, w, o, traced)
		if !traced && res.Metrics["throughput"].Value <= 0 {
			t.Errorf("throughput %v", res.Metrics["throughput"].Value)
		}
		if traced {
			hits, computed := res.Metrics["serve.cache_hits"].Value, res.Metrics["serve.computed"].Value
			if computed == 0 || hits != computed {
				t.Errorf("/metricsz: %v cells computed, %v answered from the store; want equal and > 0", computed, hits)
			}
		}
	}
	entries, err := os.ReadDir(o.WorkDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "vmpd-") {
			t.Errorf("daemon store %s left behind", e.Name())
		}
	}
}

// TestSimSmoke runs a shrunk simulator workload untraced and traced.
func TestSimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every micro")
	}
	w, _ := findWorkload("multibus")
	w = small(w)
	o := options{Seed: 11, Seconds: time.Second, MaxOps: 3, WorkDir: t.TempDir()}
	runOnce(t, w, o, false)
	r, _ := runOnce(t, w, o, true)
	if v := r.values["bus.cross_tx_ns"].Value; v <= 0 {
		t.Errorf("multibus cross-link cost %v, want > 0", v)
	}
	b, err := os.ReadFile(filepath.Join(o.WorkDir, "trace", "multibus-seed11.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	steps := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Errorf("malformed trace event %+v", ev)
		}
		steps[ev.Name] = true
	}
	for _, want := range []string{"bench.run", "workload.generate", "core.new_machine", "core.prefault", "core.run", "core.check", "micro.sim.handoff_ns"} {
		if !steps[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.Name)
	}
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the harness in step:
// the same workloads, and the same metrics with the same units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestFlags checks that the documented double-dash invocation is
// accepted and a bad one is refused without a result.
func TestFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"--workload", "steady-hits", "--trace", "2"}, &out, &errb); code != 2 {
		t.Errorf("--trace 2: exit %d", code)
	}
}
