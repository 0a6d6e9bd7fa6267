package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmp/internal/scenario"
	"vmp/internal/telemetry"
)

// waitTerminal polls the job view until it reaches a terminal state.
func waitTerminal(t *testing.T, url string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := get(t, url)
		if resp.StatusCode != 200 {
			t.Fatalf("job get = %d: %s", resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("job decode: %v\n%s", err, body)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMetricszExposition(t *testing.T) {
	_, ts := testServer(t, nil)

	// One computed job, then the same spec again as a cache hit.
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, smallSpec("expo")), "tenant-a")
		if resp.StatusCode != 200 {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, body)
		}
	}

	resp, body := get(t, ts.URL+"/metricsz")
	if resp.StatusCode != 200 {
		t.Fatalf("/metricsz = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text format", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE vmpd_submissions_total counter",
		"vmpd_submissions_total 2",
		"vmpd_computed_cells_total 1",
		"vmpd_cache_hit_cells_total 1",
		`vmpd_jobs_finished_total{state="done"} 1`,
		`vmpd_client_submissions_total{client="tenant-a"} 2`,
		"# TYPE vmpd_job_run_seconds histogram",
		`vmpd_job_run_seconds_bucket{le="+Inf"} 1`,
		"vmpd_job_run_seconds_count 1",
		"vmpd_job_queue_wait_seconds_count 1",
		"# TYPE vmpd_queue_depth gauge",
		"vmpd_queue_cap 16",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}

	// The exposition is deterministically ordered: metric names appear
	// sorted, so two scrapes of unchanged state are byte-identical.
	resp2, body2 := get(t, ts.URL+"/metricsz")
	if resp2.StatusCode != 200 {
		t.Fatalf("second scrape = %d", resp2.StatusCode)
	}
	strip := func(s string) string {
		var kept []string
		for _, ln := range strings.Split(s, "\n") {
			// Gauges (uptime) and histogram sums move between scrapes;
			// compare the stable counter lines only.
			if strings.HasPrefix(ln, "vmpd_") && strings.Contains(ln, "_total") {
				kept = append(kept, ln)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(text) != strip(string(body2)) {
		t.Errorf("counter lines changed between idle scrapes:\n%s\n--\n%s", strip(text), strip(string(body2)))
	}
	var names []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, "# TYPE ") {
			names = append(names, strings.Fields(ln)[2])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("metric families not sorted: %v", names)
	}
}

func TestStatszIsViewOverRegistry(t *testing.T) {
	s, ts := testServer(t, nil)
	post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, smallSpec("stats-view")), "c")
	post(t, ts.URL+"/v1/specs?wait=1", mustJSON(t, smallSpec("stats-view")), "c")

	sv := stats(t, ts)
	m := s.met
	for _, c := range []struct {
		name string
		json int64
		reg  int64
	}{
		{"submissions", sv.Submissions, m.submissions.Value()},
		{"shed", sv.Shed, m.shed.Value()},
		{"quota_rejected", sv.QuotaRejected, m.quotaRejected.Value()},
		{"cache_hit_cells", sv.CacheHitCells, m.cacheHitCells.Value()},
		{"computed_cells", sv.ComputedCells, m.computedCells.Value()},
		{"faulted_cells", sv.FaultedCells, m.faultedCells.Value()},
		{"repaired_cells", sv.RepairedCells, m.repairedCells.Value()},
		{"determinism_mismatches", sv.DeterminismMismatches, m.mismatches.Value()},
	} {
		if c.json != c.reg {
			t.Errorf("/statsz %s = %d but registry holds %d (two sources of truth)", c.name, c.json, c.reg)
		}
	}
	if sv.Submissions != 2 || sv.ComputedCells != 1 || sv.CacheHitCells != 1 {
		t.Errorf("unexpected counts: %+v", sv)
	}
}

func TestJobTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)

	spec := smallSpec("traced")
	spec.Obs = scenario.ObsSpec{Stream: true}
	resp, data := post(t, ts.URL+"/v1/specs?trace=1", mustJSON(t, spec), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	json.Unmarshal(data, &sub)
	waitTerminal(t, ts.URL+"/v1/jobs/"+sub.Job)

	tresp, body := get(t, ts.URL+"/v1/jobs/"+sub.Job+"/trace")
	if tresp.StatusCode != 200 {
		t.Fatalf("/trace = %d: %s", tresp.StatusCode, body)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	threads := map[string]bool{}
	spanNames := map[string]bool{}
	simRows := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "thread_name":
			threads[ev.Args["name"].(string)] = true
		case ev.TID >= 2 && ev.TID < 10:
			spanNames[ev.Name] = true
		case ev.Ph == "X" || ev.Ph == "i":
			simRows++
		}
	}
	// Service spans and sim events share the document: svc tracks on
	// top, the bus/board tracks beneath.
	for _, want := range []string{"svc:job", "svc:cells", "svc:store", "bus"} {
		if !threads[want] {
			t.Errorf("trace missing thread %q (have %v)", want, threads)
		}
	}
	for _, want := range []string{"queue", "run", "put", "cell-done"} {
		if !spanNames[want] {
			t.Errorf("trace missing service span %q (have %v)", want, spanNames)
		}
	}
	if simRows == 0 {
		t.Error("trace=1 submission with Obs.Stream produced no sim event rows")
	}

	if r, _ := get(t, ts.URL+"/v1/jobs/nope/trace"); r.StatusCode != 404 {
		t.Errorf("trace of unknown job = %d, want 404", r.StatusCode)
	}
}

func TestJobTraceWithoutOptIn(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, data := post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("untraced")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	json.Unmarshal(data, &sub)
	waitTerminal(t, ts.URL+"/v1/jobs/"+sub.Job)

	tresp, body := get(t, ts.URL+"/v1/jobs/"+sub.Job+"/trace")
	if tresp.StatusCode != 200 {
		t.Fatalf("/trace = %d", tresp.StatusCode)
	}
	text := string(body)
	// Service spans are always recorded; sim tracks only with ?trace=1.
	if !strings.Contains(text, `"svc:job"`) {
		t.Error("untraced job lost its service spans")
	}
	if strings.Contains(text, `"bus"`) {
		t.Error("untraced job invented sim event rows")
	}
}

func TestEventsStreamClientDisconnect(t *testing.T) {
	s, ts := testServer(t, nil)
	s.runCells = blockingRunCells

	resp, data := post(t, ts.URL+"/v1/specs", mustJSON(t, smallSpec("abandoned")), "c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	json.Unmarshal(data, &sub)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+sub.Job+"/events", nil)
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()

	// Read the first event, then walk away mid-stream: the job is
	// wedged, so without the disconnect the stream would never end.
	dec := json.NewDecoder(eresp.Body)
	var ev JobEvent
	if err := dec.Decode(&ev); err != nil {
		t.Fatalf("first event: %v", err)
	}
	if ev.Kind != "queued" {
		t.Fatalf("first event kind = %q", ev.Kind)
	}
	cancel()

	// The handler's deferred span records only when it returns; its
	// appearance proves the streaming goroutine exited rather than
	// leaking on a parked waitEvents.
	j := s.lookupJob(sub.Job)
	if j == nil {
		t.Fatal("job vanished")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := false
		for _, sp := range j.spanList() {
			if sp.Track == "stream" && sp.Name == "events" {
				done = true
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("events handler never exited after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQuotaRefillExactBoundary(t *testing.T) {
	q := NewQuotas(2, 1) // 2 tokens/s, burst 1
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	if ok, _ := q.Allow("c"); !ok {
		t.Fatal("fresh bucket must admit")
	}
	// Bucket exactly empty. One token accrues after exactly 500ms; a
	// hair earlier the bucket is still short and must refuse with a
	// whole-second Retry-After.
	now = now.Add(500*time.Millisecond - time.Nanosecond)
	ok, retry := q.Allow("c")
	if ok {
		t.Fatal("admitted with a fractionally short bucket")
	}
	if retry < time.Second {
		t.Fatalf("retry = %v, want >= 1s (whole seconds, rounded up)", retry)
	}
	// The refusal above advanced b.last; accrue the remaining shortfall
	// from there. At the exact refill instant the bucket holds exactly
	// one token and must admit (>= 1, not > 1).
	now = now.Add(500 * time.Millisecond)
	if ok, _ := q.Allow("c"); !ok {
		t.Fatal("refused at the exact one-token refill instant")
	}
	// And the spend drained it again.
	if ok, _ := q.Allow("c"); ok {
		t.Fatal("admitted from a just-drained bucket")
	}
}

// TestTelemetryOverheadGuard is the CI 5% budget check, computed by
// count: it runs macro-sized jobs, reads back from the registry how
// many telemetry updates they made, prices each kind of update with
// testing.Benchmark, and fails when count × cost exceeds 5% of the
// jobs' run time (the vmpd_job_run_seconds sum). A count does not move
// with the host's load the way a ratio of two wall times does. Opt-in
// via VMP_OVERHEAD_GUARD=1 because pricing takes a few seconds.
func TestTelemetryOverheadGuard(t *testing.T) {
	if os.Getenv("VMP_OVERHEAD_GUARD") == "" {
		t.Skip("set VMP_OVERHEAD_GUARD=1 to run the telemetry overhead guard")
	}
	s, _ := testServer(t, nil)

	const jobs = 8
	for i := 0; i < jobs; i++ {
		spec := smallSpec(fmt.Sprintf("guard-%d", i))
		// Macro-sized cells so simulation work, not per-job fixed cost,
		// is the denominator; unique ref counts defeat the cache (equal
		// fingerprints would be served from disk).
		spec.Workload.Refs = 20_000 + i
		fp, err := spec.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		j := s.newJobRecord("spec", spec.Name, "guard", jobWork{
			cells: []scenario.Cell{{Name: spec.Name, Spec: spec}}, fps: []string{fp},
		}, 30*time.Second)
		if !s.enqueue(j) {
			t.Fatal("queue full")
		}
		for !j.state().Terminal() {
			time.Sleep(200 * time.Microsecond)
		}
		if st := j.state(); st != JobDone {
			t.Fatalf("guard job state = %s", st)
		}
	}
	if n := s.met.runDur.Count(); n != jobs {
		t.Fatalf("vmpd_job_run_seconds counted %d jobs, want %d", n, jobs)
	}
	runNs := s.met.runDur.Sum() * 1e9

	counters, children, observations := updateCounts(t, s.reg)
	reg := telemetry.NewRegistry()
	c := reg.Counter("vmp_guard_total", "")
	f := reg.CounterFamily("vmp_guard_family_total", "", "state")
	h := reg.Histogram("vmp_guard_seconds", "", nil)
	start := time.Now()
	incNs := nsPerOp(func() { c.Inc() })
	childNs := nsPerOp(func() { f.WithLabel("done").Inc() })
	observeNs := nsPerOp(func() { h.ObserveSince(start) })

	costNs := float64(counters)*incNs + float64(children)*childNs + float64(observations)*observeNs
	t.Logf("%d counter, %d family and %d histogram updates at %.1f, %.1f and %.1f ns: %.2f µs against %.1f ms of job run time (%.4f%%)",
		counters, children, observations, incNs, childNs, observeNs, costNs/1e3, runNs/1e6, costNs/runNs*100)
	if costNs > runNs*0.05 {
		t.Errorf("telemetry updates cost %.1f%% of job run time, exceeds the 5%% budget (%.2f µs of %.1f ms)",
			costNs/runNs*100, costNs/1e3, runNs/1e6)
	}
}

// updateCounts reads back from the registry's exposition how many
// updates were made of each kind: plain counter increments, family
// child increments and histogram observations. Gauges are read at
// scrape time and cost no update. Counters count one update per unit,
// so a batched Add(n) is charged as n increments.
func updateCounts(t *testing.T, reg *telemetry.Registry) (counters, children, observations int64) {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	kind := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if f := strings.Fields(ln); len(f) == 4 && f[1] == "TYPE" {
			kind[f[2]] = f[3]
		}
		if strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		series, labeled := ln[:sp], false
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series, labeled = series[:i], true
		}
		v, err := strconv.ParseFloat(ln[sp+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", ln, err)
		}
		switch {
		case kind[series] == "counter" && !labeled:
			counters += int64(v)
		case kind[series] == "counter":
			children += int64(v)
		case strings.HasSuffix(series, "_count") && kind[strings.TrimSuffix(series, "_count")] == "histogram":
			observations += int64(v)
		}
	}
	return counters, children, observations
}

// nsPerOp prices one operation with testing.Benchmark.
func nsPerOp(op func()) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
