package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vmp/internal/scenario"
)

// runTraced is the separate traced run that gives the per-layer
// metrics. It alternates untraced scenario runs with staged runs of the
// same seeds (a span per step, counts checked equal), measures each
// layer's per-op cost in isolation on the workload's configuration,
// and builds the host-time ledger from the two. For serve-mixed the
// simulation is one computed grid cell, and vmpd sessions are run
// untraced and traced on top. The spans and the ledger are written
// under WorkDir/trace.
func runTraced(ctx context.Context, w workload, o options, r *report, out io.Writer) error {
	tr := newTracer()
	check, err := newChecker()
	if err != nil {
		return err
	}
	res, err := scenario.RunCtx(ctx, w.Sim.spec(w.Name, o.Seed))
	r.op(check.run(res, err))

	simOpts := o
	if w.Grids != nil {
		simOpts.Seconds = o.Seconds / 4
	}
	var plain, traced []float64 // simulated refs per host second
	// The handoff dominates the ledger, so it is measured after every
	// staged run, under the same host conditions as the runs themselves.
	var handoffs []float64
	var runs []int
	var first counts
	var payload []byte
	start := time.Now()
	for i := 1; !simOpts.timedDone(start, i-1, 1); i++ {
		spec := w.Sim.spec(w.Name, o.Seed+uint64(i))
		runtime.GC()
		t0 := time.Now()
		res, err := scenario.RunCtx(ctx, spec)
		wall := time.Since(t0).Seconds()
		err = check.run(res, err)
		var st *staged
		if err == nil {
			runtime.GC()
			err = tr.span("bench", "run", i, func() (err error) {
				if st, err = prepare(spec, tr, i); err != nil {
					return err
				}
				return st.runAndCheck(ctx)
			})
		}
		if err == nil {
			if got, want := machineCounts(st.m), machineCounts(res.Machine); got != want {
				err = fmt.Errorf("run %d: staged counts %+v, scenario.Run counts %+v", i, got, want)
			}
		}
		if err == nil {
			err = tr.span("micro", "sim.handoff_ns", i, func() error {
				h, err := perOp(handoffOp)
				if err == nil {
					handoffs = append(handoffs, h)
				}
				return err
			})
		}
		r.op(err)
		if err != nil {
			continue
		}
		plain = append(plain, float64(res.Summary.Refs)/wall)
		traced = append(traced, float64(st.refs)/tr.total("bench", "run", i))
		runs = append(runs, i)
		if len(runs) == 1 {
			first = machineCounts(st.m)
			payload, err = json.Marshal(scenario.CellResult{Name: res.Spec.Name, Fingerprint: res.Fingerprint, Spec: res.Spec, Summary: res.Summary})
			if err != nil {
				return err
			}
		}
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s: no traced run succeeded", w.Name)
	}
	spanMedian := func(layer, name string) float64 {
		xs := make([]float64, len(runs))
		for j, i := range runs {
			xs[j] = tr.total(layer, name, i)
		}
		r.set(layer+"."+name+"_s", median(xs), len(xs))
		return median(xs)
	}
	spanMedian("workload", "generate")
	spanMedian("core", "new_machine")
	spanMedian("core", "prefault")
	runS := spanMedian("core", "run")
	spanMedian("core", "check")

	r.set("sim.handoff_ns", median(handoffs), len(handoffs))
	costs, err := measureCosts(w, o, tr, r, median(handoffs))
	if err != nil {
		return err
	}
	setCounts(r, first)

	overhead := 1 - median(traced)/median(plain)
	if w.Grids != nil {
		if overhead, err = tracedServe(ctx, w, o, r, tr); err != nil {
			return err
		}
	} else {
		ns, err := storeGetNs(o.WorkDir, payload)
		if err != nil {
			return err
		}
		r.set("serve.store_get_ns", ns, microReps)
		// The daemon's own metrics are 0: this workload runs no daemon.
		for _, d := range perLayer {
			if _, ok := r.values[d.Name]; !ok && strings.HasPrefix(d.Name, "serve.") {
				r.set(d.Name, 0, 0)
			}
		}
	}
	r.set("trace.overhead_frac", overhead, len(traced))

	l := newLedger(first, costs, runS)
	l.set(r)
	dir := filepath.Join(o.WorkDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.Name, o.Seed))
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return err
	}
	if err := l.writeJSON(base + ".ledger.json"); err != nil {
		return err
	}
	l.print(out)
	fmt.Fprintf(out, "trace %s.trace.json\nledger %s.ledger.json\n", base, base)
	return nil
}

// setCounts reports one run's per-layer work counts.
func setCounts(r *report, c counts) {
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"sim.events", float64(c.Events)},
		{"cache.hits", float64(c.Hits)},
		{"cache.fills", float64(c.Fills)},
		{"cache.hit_frac", frac(float64(c.Hits), float64(c.Lookups))},
		{"core.refs", float64(c.Refs)},
		{"core.retries", float64(c.Retries)},
		// Of the miss handler's attempts, the share that ended in an
		// abort and had to run again.
		{"core.retry_frac", frac(float64(c.Retries), float64(c.Fills+c.Retries))},
		{"core.intr_words", float64(c.IntrWords)},
		{"bus.tx", float64(c.BusTx)},
		{"bus.aborts", float64(c.BusAborts)},
		{"bus.abort_frac", frac(float64(c.BusAborts), float64(c.BusTx))},
		{"bus.util_pct", c.BusUtilPct},
		{"bus.link_crossings", float64(c.Crossings)},
		{"bus.filtered_local", float64(c.Filtered)},
		{"bus.frame_waits", float64(c.FrameWaits)},
		{"monitor.checks", float64(c.MonChecks)},
		{"monitor.interrupts", float64(c.MonInterrupts)},
		{"copier.transfers", float64(c.CopierTransfers)},
		{"copier.aborted", float64(c.CopierAborted)},
	} {
		r.set(m.name, m.v, 1)
	}
}

// tracedServe runs vmpd sessions untraced and then traced, each for a
// third of the measuring time, and reports the daemon's own metrics,
// the submission round trips by grid and kind, and the store's read
// cost. It returns the tracing overhead on cells answered per second.
func tracedServe(ctx context.Context, w workload, o options, r *report, tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(o.WorkDir, "vmpd-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var d *daemon
	err = tr.span("serve", "start", 0, func() (err error) {
		d, err = startDaemon(ctx, filepath.Join(dir, "store"))
		return err
	})
	if err != nil {
		return 0, err
	}
	third := o
	third.Seconds = o.Seconds / 3
	plain, next := d.sessions(ctx, w, third, o.Seed+1, 1, nil, r)
	traced, _ := d.sessions(ctx, w, third, next, 1, tr, r)
	met, err := d.scrapeMetrics(ctx)
	var get float64
	if err == nil && len(plain) == 0 {
		err = fmt.Errorf("%s: no untraced session succeeded", w.Name)
	}
	if err == nil {
		get, err = perOp(storeGetOp(d.srv.Store(), plain[0].fps))
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	r.set("serve.store_get_ns", get, microReps)
	r.set("serve.cache_hits", met["vmpd_cache_hit_cells_total"], 1)
	r.set("serve.computed", met["vmpd_computed_cells_total"], 1)
	r.set("serve.determinism_mismatches", met["vmpd_determinism_mismatches_total"], 1)
	for name, series := range map[string]string{
		"serve.queue_wait_ms": "vmpd_job_queue_wait_seconds",
		"serve.job_run_ms":    "vmpd_job_run_seconds",
		"serve.store_put_ms":  "vmpd_store_put_seconds",
	} {
		n := met[series+"_count"]
		r.set(name, 1000*frac(met[series+"_sum"], n), int(n))
	}
	for _, g := range w.Grids {
		for _, cold := range []bool{true, false} {
			var xs []float64
			for _, s := range plain {
				for _, sub := range s.subs {
					if sub.Grid == g.Short && sub.Cold == cold {
						xs = append(xs, sub.MS)
					}
				}
			}
			r.set(submissionMetric(g.Short, cold), median(xs), len(xs))
		}
	}
	rate := func(ss []session) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = float64(s.cells()) / s.seconds
		}
		return median(xs)
	}
	return 1 - frac(rate(traced), rate(plain)), nil
}

// submissionMetric names the per-layer metric of one grid's cold or
// warm submission round trip.
func submissionMetric(short string, cold bool) string {
	if cold {
		return "serve." + short + ".cold_ms"
	}
	return "serve." + short + ".warm_ms"
}
