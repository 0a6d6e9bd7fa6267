// Command vmpbench regenerates the tables and figures of the paper's
// evaluation (Section 5) and the ablations, printing paper-vs-measured
// tables and ASCII figures.
//
// Usage:
//
//	vmpbench                 # run everything at full fidelity
//	vmpbench -quick          # shrunken workloads for a fast smoke run
//	vmpbench -run fig4       # one experiment by id
//	vmpbench -workers 4      # cap concurrent experiments (0 = GOMAXPROCS)
//	vmpbench -list           # list experiment ids
//	vmpbench -csv            # also print each table as CSV
//	vmpbench -json           # machine-readable results on stdout
//	vmpbench -md             # EXPERIMENTS.md-style markdown on stdout
//	vmpbench -run fault-sweep -faults abort=0.05 -check
//	                         # fault injection + invariant watchdog
//	vmpbench -sweep grid.json -out sweep.json
//	                         # expand a scenario grid and run every cell
//	vmpbench -sweep grid.json -remote http://localhost:8347
//	                         # run the sweep on a vmpd daemon; repeat
//	                         # submissions come back as cache hits
//	vmpbench -bench BENCH_6.json
//	                         # hot-path benchmark snapshot (perf trajectory)
//	vmpbench -bench BENCH_8.json -compare BENCH_7.json
//	                         # collect AND gate against a baseline snapshot
//	vmpbench -compare BENCH_7.json -compare-allocs-only
//	                         # collect (without writing) and check only
//	                         # machine-independent facts — the CI gate
//
// The -compare gate exits non-zero when the current run regresses
// beyond the noise threshold (-compare-threshold, default 0.5 = 50%).
// -compare may repeat: one collection is gated against every baseline,
// and every regression from every baseline is reported before the one
// non-zero exit — a multi-metric regression is diagnosable from a
// single run's log.
// Timing comparisons only mean something between runs on the same
// machine; against a snapshot committed from different hardware, use
// -compare-allocs-only (fingerprint, allocs/op, bytes/op).
//
// Results are deterministic for a given -seed regardless of -workers:
// each experiment's workload seed derives from the id, not from
// scheduling order. Likewise a -sweep's per-cell results are
// byte-identical for any -workers value: each cell is a pure function
// of its scenario spec.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vmp/internal/experiments"
	"vmp/internal/fault"
	"vmp/internal/perf"
	"vmp/internal/scenario"
	"vmp/internal/serve"
	"vmp/internal/stats"
)

func main() {
	var (
		run     = flag.String("run", "", "run a single experiment by id")
		quick   = flag.Bool("quick", false, "shrink workloads for a fast run")
		seed    = flag.Uint64("seed", 11, "workload seed")
		workers = flag.Int("workers", 0, "concurrent experiments (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		csv     = flag.Bool("csv", false, "also emit each table as CSV")
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON results")
		mdOut   = flag.Bool("md", false, "emit EXPERIMENTS.md-style markdown")
		faults  = flag.String("faults", "", "inject faults into every machine, e.g. abort=0.05,copy=0.02 (empty/none = off)")
		check   = flag.Bool("check", false, "report the protocol invariant watchdog's counters for every machine (the watchdog checks every machine)")
		sweep   = flag.String("sweep", "", "expand and run the scenario.Grid in this JSON file instead of the experiment registry")
		outFile = flag.String("out", "", "with -sweep: write the machine-readable per-cell results to this JSON file")
		remote  = flag.String("remote", "", "with -sweep: submit to the vmpd daemon at this base URL instead of running locally")
		bench   = flag.String("bench", "", "collect the hot-path benchmark snapshot and write it to this JSON file (e.g. BENCH_6.json)")
		cmpTh   = flag.Float64("compare-threshold", 0, "allowed fractional timing slowdown before -compare flags a regression (0 = default 0.5)")
		cmpAO   = flag.Bool("compare-allocs-only", false, "restrict -compare to machine-independent facts (fingerprint, allocs/op, bytes/op)")
	)
	var compares []string
	flag.Func("compare", "gate the collected snapshot against this baseline BENCH_<n>.json (repeatable); all regressions from every baseline are reported before the non-zero exit", func(v string) error {
		compares = append(compares, v)
		return nil
	})
	flag.Parse()

	if *bench != "" || len(compares) > 0 {
		runBench(*bench, compares, perf.CompareOptions{Threshold: *cmpTh, AllocsOnly: *cmpAO})
		return
	}

	if *sweep != "" {
		if *remote != "" {
			runRemoteSweep(*sweep, *outFile, *remote)
		} else {
			runSweep(*sweep, *outFile, *workers)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %-11s %-8s %s\n", e.ID, e.Artifact, e.Cost, e.Title)
		}
		return
	}

	spec, ferr := fault.Parse(*faults)
	if ferr != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", ferr)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick, Seed: *seed, Faults: spec, Check: *check}

	var results []*experiments.Result
	var err error
	start := time.Now()
	if *run != "" {
		var r *experiments.Result
		r, err = experiments.Run(*run, opts)
		results = append(results, r)
	} else {
		results, err = experiments.RunAll(opts, *workers)
	}
	if err != nil {
		var unknown *experiments.UnknownIDError
		if errors.As(err, &unknown) {
			fmt.Fprintf(os.Stderr, "vmpbench: unknown experiment id %q; valid ids:\n", unknown.ID)
			for _, id := range unknown.Known {
				fmt.Fprintln(os.Stderr, " ", id)
			}
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		os.Exit(1)
	}

	switch {
	case *jsonOut:
		if err := emitJSON(results); err != nil {
			fmt.Fprintln(os.Stderr, "vmpbench:", err)
			os.Exit(1)
		}
	case *mdOut:
		emitMarkdown(results, opts)
	default:
		for _, r := range results {
			fmt.Println(r)
			if *csv && r.Table != nil {
				fmt.Println(r.Table.CSV())
			}
		}
		fmt.Printf("completed %d experiment(s) in %v\n", len(results), time.Since(start).Round(time.Millisecond))
	}
}

// runBench collects the benchmark-trajectory snapshot (internal/perf),
// writes it to path when given, and — when comparePath is set — gates
// it against that baseline, exiting non-zero on any regression. The
// JSON is committed as BENCH_<n>.json per PR so the perf trajectory is
// reviewable; the numbers are host-dependent, so full timing compares
// only mean something between runs on comparable machines (the CI gate
// uses -compare-allocs-only for the committed snapshot).
func runBench(path string, comparePaths []string, cmpOpts perf.CompareOptions) {
	snap, err := perf.Collect()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		os.Exit(1)
	}
	if path != "" {
		if err := snap.WriteJSON(path); err != nil {
			fmt.Fprintln(os.Stderr, "vmpbench:", err)
			os.Exit(1)
		}
	}

	m := snap.Macro
	fmt.Printf("macro %s (fingerprint %s): %.0f events/sec, %.0f simulated refs/sec, %.0f host-ns/miss\n",
		m.Scenario, m.Fingerprint, m.EventsPerSec, m.RefsPerSec, m.NsPerMiss)
	t := stats.NewTable("Hot-path micro-benchmarks", "Benchmark", "ns/op", "allocs/op", "B/op")
	for _, mb := range snap.Micro {
		t.Add(mb.Name, fmt.Sprintf("%.1f", mb.NsPerOp), mb.AllocsPerOp, mb.BytesPerOp)
	}
	fmt.Println(t)
	if path != "" {
		fmt.Printf("wrote %s\n", path)
	}

	// Every baseline is compared and every regression reported before
	// the single exit: a run that regresses on several metrics (or
	// against several baselines) is fully diagnosable from one log.
	exit := 0
	mode := "full"
	if cmpOpts.AllocsOnly {
		mode = "allocs-only"
	}
	for _, comparePath := range comparePaths {
		base, err := perf.ReadSnapshot(comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmpbench:", err)
			exit = 2
			continue
		}
		regs := perf.Compare(base, snap, cmpOpts)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "vmpbench: %d regression(s) against %s:\n", len(regs), comparePath)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, " ", r)
			}
			if exit == 0 {
				exit = 1
			}
			continue
		}
		fmt.Printf("no regressions against %s (%s compare)\n", comparePath, mode)
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// runSweep expands a scenario grid, runs every cell (workers at a
// time; results are identical for any worker count), prints a per-cell
// summary table, and writes the machine-readable artifact when -out is
// given. Any cell error or invariant violation exits non-zero.
func runSweep(gridPath, outPath string, workers int) {
	g, err := scenario.ReadGridFile(gridPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		os.Exit(2)
	}
	start := time.Now()
	res, err := scenario.RunGrid(g, scenario.RunOptions{Workers: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		os.Exit(1)
	}
	finishSweep(res, outPath, start)
}

// runRemoteSweep submits the grid to a vmpd daemon and assembles the
// sweep from the daemon's content-addressed result store. A grid the
// daemon has seen before comes back without any computation.
func runRemoteSweep(gridPath, outPath, baseURL string) {
	g, err := scenario.ReadGridFile(gridPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	c := serve.NewClient(baseURL)
	start := time.Now()
	sub, err := c.SubmitGrid(ctx, *g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmpbench:", err)
		os.Exit(1)
	}

	var res *scenario.SweepResult
	if sub.Sweep != nil {
		fmt.Printf("daemon answered %d cell(s) from cache\n", sub.CachedCells)
		res = sub.Sweep
	} else {
		fmt.Printf("daemon accepted job %s: %d cell(s), %d already cached\n", sub.Job, sub.Cells, sub.CachedCells)
		// Follow the NDJSON progress stream, then fetch each cell's
		// stored record by fingerprint.
		if err := c.Events(ctx, sub.Job, func(ev serve.JobEvent) {
			if ev.Kind == "cell" {
				status := "computed"
				if ev.Cached {
					status = "cached"
				}
				if ev.Err != "" {
					status = "FAILED: " + ev.Err
				}
				fmt.Printf("  cell %s (%s): %s\n", ev.Cell, ev.Fingerprint, status)
			}
		}); err != nil {
			fmt.Fprintln(os.Stderr, "vmpbench: event stream:", err)
		}
		v, err := c.WaitJob(ctx, sub.Job)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vmpbench:", err)
			os.Exit(1)
		}
		if v.State != serve.JobDone {
			fmt.Fprintf(os.Stderr, "vmpbench: remote job %s %s: %s\n", v.ID, v.State, v.Err)
			if v.Dump != "" {
				fmt.Fprintln(os.Stderr, v.Dump)
			}
			os.Exit(1)
		}
		res = &scenario.SweepResult{Name: g.Name, Cells: make([]scenario.CellResult, 0, len(sub.Fingerprints))}
		for _, fp := range sub.Fingerprints {
			cr, err := c.CellResult(ctx, fp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "vmpbench: fetching %s: %v\n", fp, err)
				os.Exit(1)
			}
			res.Cells = append(res.Cells, *cr)
		}
	}
	finishSweep(res, outPath, start)
}

// finishSweep prints the per-cell table, writes the artifact, and exits
// non-zero on any cell failure — shared by local and remote sweeps so
// both render identically.
func finishSweep(res *scenario.SweepResult, outPath string, start time.Time) {
	t := stats.NewTable(fmt.Sprintf("Sweep %s: %d cells", res.Name, len(res.Cells)),
		"Cell", "Fingerprint", "Sim (ms)", "Refs", "Miss (%)", "Bus (%)", "Retries", "Violations", "Status")
	for _, c := range res.Cells {
		status := "ok"
		if c.Err != "" {
			status = "ERROR: " + c.Err
		} else if c.Summary.Violations > 0 {
			status = "VIOLATIONS"
		}
		t.Add(c.Name, c.Fingerprint, float64(c.Summary.SimNs)/1e6, c.Summary.Refs,
			c.Summary.MissRatioPct, c.Summary.BusUtilPct, c.Summary.Retries, c.Summary.Violations, status)
	}
	fmt.Println(t)
	fmt.Printf("swept %d cell(s) in %v\n", len(res.Cells), time.Since(start).Round(time.Millisecond))

	if outPath != "" {
		if err := res.WriteJSON(outPath); err != nil {
			fmt.Fprintln(os.Stderr, "vmpbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if n := res.Failures(); n > 0 {
		fmt.Fprintf(os.Stderr, "vmpbench: %d of %d sweep cells failed\n", n, len(res.Cells))
		os.Exit(1)
	}
}

// jsonResult is the machine-readable form of one experiment result.
type jsonResult struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Artifact string `json:"artifact,omitempty"`

	WallMs          float64 `json:"wall_ms"`
	SimNs           int64   `json:"sim_ns"`
	EventsFired     uint64  `json:"events_fired"`
	EventsScheduled uint64  `json:"events_scheduled"`
	MaxQueueDepth   int     `json:"max_queue_depth"`
	Engines         int     `json:"engines"`
	SimNsPerWallMs  float64 `json:"sim_ns_per_wall_ms"`

	// FaultCounters and CheckCounters report the summed fault-injection
	// and invariant-watchdog activity across the experiment's machines
	// (map keys are sorted by json.Marshal, so output is deterministic).
	FaultCounters map[string]int64 `json:"fault_counters,omitempty"`
	CheckCounters map[string]int64 `json:"check_counters,omitempty"`

	Table     *jsonTable `json:"table,omitempty"`
	PaperNote string     `json:"paper_note,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Note    string     `json:"note,omitempty"`
}

func emitJSON(results []*experiments.Result) error {
	out := make([]jsonResult, 0, len(results))
	for _, r := range results {
		jr := jsonResult{
			ID:              r.ID,
			Title:           r.Title,
			WallMs:          float64(r.Metrics.Wall) / float64(time.Millisecond),
			SimNs:           int64(r.Metrics.SimTime),
			EventsFired:     r.Metrics.EventsFired,
			EventsScheduled: r.Metrics.EventsScheduled,
			MaxQueueDepth:   r.Metrics.MaxQueueDepth,
			Engines:         r.Metrics.Engines,
			SimNsPerWallMs:  r.Metrics.SimNsPerWallMs(),
			FaultCounters:   r.Metrics.FaultCounters,
			CheckCounters:   r.Metrics.CheckCounters,
			PaperNote:       r.PaperNote,
		}
		if e, ok := experiments.Lookup(r.ID); ok {
			jr.Artifact = e.Artifact
		}
		if r.Table != nil {
			jr.Table = &jsonTable{
				Title:   r.Table.Title,
				Columns: r.Table.Columns,
				Rows:    r.Table.Rows,
				Note:    r.Table.Note,
			}
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// emitMarkdown renders the results as the EXPERIMENTS.md document:
// measured tables in markdown form with the paper's reported values
// alongside, regenerable at any time from the registry.
func emitMarkdown(results []*experiments.Result, o experiments.Options) {
	fidelity := "full fidelity"
	if o.Quick {
		fidelity = "quick mode"
	}
	fmt.Printf("# EXPERIMENTS — paper vs measured\n\n")
	fmt.Printf("Every table and figure of the paper's evaluation (Section 5) plus\n")
	fmt.Printf("the ablations implied by Sections 2, 3.3, 5.4 and 6 — %d experiments\n", len(results))
	fmt.Printf("in all. This document is generated: regenerate it with\n")
	fmt.Printf("`go run ./cmd/vmpbench -md > EXPERIMENTS.md` (%s, seed %d,\n", fidelity, o.Seed)
	fmt.Printf("deterministic; per-experiment seeds derive from the experiment id).\n")
	fmt.Printf("Individual artifacts: `-run <id>`; ids: `-list`.\n\n")
	fmt.Printf("All timing numbers are **measured inside the simulator** by running\n")
	fmt.Printf("the machine, not recomputed from the timing constants.\n")

	for _, r := range results {
		artifact := ""
		if e, ok := experiments.Lookup(r.ID); ok {
			artifact = e.Artifact + " — "
		}
		fmt.Printf("\n## %s%s (`%s`)\n\n", artifact, r.Title, r.ID)
		if r.Table != nil {
			fmt.Print(markdownTable(r.Table))
		}
		if r.Plot != nil {
			fmt.Printf("```\n%s```\n\n", r.Plot.String())
		}
		if r.PaperNote != "" {
			// Multiline paper notes carry ASCII art (fig1's diagram):
			// keep the first line as prose and fence the rest.
			if head, rest, multi := strings.Cut(r.PaperNote, "\n"); multi {
				fmt.Printf("**Paper:** %s\n\n```\n%s\n```\n", head, strings.TrimRight(rest, "\n"))
			} else {
				fmt.Printf("**Paper:** %s\n", r.PaperNote)
			}
		}
	}
}

func markdownTable(t *stats.Table) string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "*%s*\n\n", t.Title)
	}
	cell := func(s string) string {
		return strings.ReplaceAll(strings.TrimSpace(s), "|", "\\|")
	}
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + cell(c) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for i := range t.Columns {
			v := ""
			if i < len(row) {
				v = row[i]
			}
			b.WriteString(" " + cell(v) + " |")
		}
		b.WriteString("\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n%s\n", t.Note)
	}
	b.WriteString("\n")
	return b.String()
}
