// Command bench is the repository benchmark. It runs one workload in
// its own process, checks every output, and prints each metric with its
// unit, sample count, direction and regression bound, then one JSON line
// with the result:
//
//	go run . -workload steady-hits -seed 11 -seconds 25 -trace 0
//
// With -trace 0 it reports the end-to-end metrics, measured with
// tracing off. With -trace 1 it makes the separate traced run instead:
// the per-layer metrics, a Chrome trace-event file of its spans and the
// host-time ledger, written under -workdir/trace. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 11, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 25, "how long the timed part measures")
	traced := fs.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
	workDir := fs.String("workdir", ".bench_build", "directory for temporary stores and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload (%s), -trace 0|1 and -seconds > 0\n", workloadNames())
		return 2
	}
	o := options{Seed: *seed, Seconds: time.Duration(*seconds * float64(time.Second)), WorkDir: *workDir}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printEnv(stdout, w, o, *traced == 1)
	r, defs, err := measure(context.Background(), w, o, *traced == 1, stdout)
	if err == nil {
		err = r.write(stdout, defs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	return 0
}

// measure runs one workload untraced or traced and returns the report
// and the metrics it must contain.
func measure(ctx context.Context, w workload, o options, traced bool, out io.Writer) (*report, []metricDef, error) {
	r := newReport()
	var err error
	switch {
	case traced:
		err = runTraced(ctx, w, o, r, out)
		return r, perLayer, err
	case w.Grids != nil:
		err = runServe(ctx, w, o, r)
	default:
		err = runSim(ctx, w, o, r)
	}
	return r, endToEnd, err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// printEnv records what ran the benchmark, so numbers from different
// hosts, or from a traced run, are never mistaken for each other.
func printEnv(w io.Writer, wl workload, o options, traced bool) {
	mode := "untraced"
	if traced {
		mode = "traced: per-layer numbers include tracing overhead (trace.overhead_frac)"
	}
	fmt.Fprintf(w, "env go=%s goos=%s goarch=%s gomaxprocs=%d nproc=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%g mode=%s\n", wl.Name, o.Seed, o.Seconds.Seconds(), mode)
	fmt.Fprintf(w, "why %s\n", wl.Why)
}

// resetPeakRSS collects garbage, returns the freed memory to the OS
// and restarts the kernel's peak-RSS count from the current footprint,
// so that the next peakRSSMB covers only what runs in between. Where
// the kernel refuses the reset, peakRSSMB stays the process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set (VmHWM) since the process started
// or since resetPeakRSS, in MB, or 0 where /proc does not report it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
