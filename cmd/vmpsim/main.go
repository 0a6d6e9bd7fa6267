// Command vmpsim runs a configurable VMP machine on synthetic
// ATUM-like traces or a binary trace file and reports per-board, cache
// and bus statistics — the instrumented-prototype view of the machine.
//
// Every run is described by a scenario.Spec: either built from the
// flags below or loaded with -scenario from a JSON file (in which case
// the machine/workload flags are ignored). -dump-spec prints the
// canonical spec for the current flags, which is the easiest way to
// author a scenario file.
//
// Usage:
//
//	vmpsim -procs 4 -cache 131072 -page 256 -profile edit -n 200000
//	vmpsim -procs 2 -trace edit.trc
//	vmpsim -procs 4 -profile compile -sharekernel
//	vmpsim -procs 4 -faults abort=0.05,copy=0.02 -check
//	vmpsim -procs 4 -protocol vmp3 -check     # MESI-style exclusive-clean variant
//	vmpsim -scenario run.json                # run a scenario file
//	vmpsim -procs 4 -dump-spec               # print the spec for these flags
//	vmpsim -procs 4 -trace-out run.json      # Perfetto/chrome://tracing trace
//	vmpsim -procs 4 -phases -hotpages 10     # phase latencies + hot pages
//	vmpsim -procs 4 -cpuprofile cpu.pb.gz    # host-side CPU profile of the run
//	vmpsim -procs 4 -memprofile mem.pb.gz    # heap profile at run end
//
// The process exits non-zero when the shadow checker reports an
// invariant violation or any board observes a protocol violation. A
// simulator fault (e.g. the livelock watchdog's hard limit) is
// contained: the flight-recorder dump is written to a file, its path
// printed, and the process exits non-zero — no raw goroutine trace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vmp/internal/bus"
	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/scenario"
	"vmp/internal/stats"
)

func main() {
	var (
		procs       = flag.Int("procs", 1, "number of processor boards")
		cacheSize   = flag.Int("cache", 128<<10, "per-board cache size in bytes")
		pageSize    = flag.Int("page", 256, "cache page size: 128, 256 or 512")
		assoc       = flag.Int("assoc", 4, "cache associativity (1-4 in the prototype)")
		memSize     = flag.Int("mem", 8<<20, "main memory size in bytes")
		fifo        = flag.Int("fifo", 128, "bus monitor FIFO depth")
		buses       = flag.Int("buses", 1, "local buses in a hierarchical interconnect (1 = the flat VMEbus; boards spread evenly)")
		profile     = flag.String("profile", "edit", "synthetic trace profile per board")
		traceFile   = flag.String("trace", "", "binary trace file replayed on every board (overrides -profile)")
		n           = flag.Int("n", 200_000, "references per board")
		seed        = flag.Uint64("seed", 11, "workload seed (board i uses seed+31*i)")
		shareKernel = flag.Bool("sharekernel", false, "let all boards share kernel-region frames (contended) instead of per-board kernel slices")
		prefault    = flag.Bool("prefault", true, "pre-fault all pages so the run measures steady-state misses")
		hist        = flag.Bool("hist", false, "print each board's miss-latency histogram")
		metrics     = flag.Bool("metrics", false, "dump the full per-run metrics sink (every counter)")
		faults      = flag.String("faults", "", "fault-injection spec, e.g. abort=0.05,copy=0.02,fifo=2,storm=0.1,flip=0.02 (empty/none = off)")
		protoFlag   = flag.String("protocol", "", "coherence protocol: "+strings.Join(protocol.Names(), ", ")+" (empty = "+protocol.DefaultName+")")
		checkFlag   = flag.Bool("check", false, "enable the protocol invariant watchdog (implied by -faults)")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event/Perfetto JSON trace of the run to this file")
		dumpOnExit  = flag.Bool("dump-on-exit", false, "dump the flight recorder to stderr when the run ends")
		hotpages    = flag.Int("hotpages", 0, "print the top-N cache pages by consistency traffic")
		phases      = flag.Bool("phases", false, "print the per-phase miss-handler latency table")
		scenarioIn  = flag.String("scenario", "", "run the scenario.Spec in this JSON file (machine/workload flags are ignored)")
		dumpSpec    = flag.Bool("dump-spec", false, "print the canonical scenario spec and exit without running")
		cpuProfile  = flag.String("cpuprofile", "", "write a host-side CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile at run end to this file")
	)
	flag.Parse()

	var spec *scenario.Spec
	if *scenarioIn != "" {
		s, err := scenario.ReadSpecFile(*scenarioIn)
		if err != nil {
			fatal(err)
		}
		spec = s
	} else {
		spec = &scenario.Spec{
			Name: "vmpsim",
			Seed: *seed,
			Machine: scenario.MachineSpec{
				Processors: *procs,
				CacheSize:  *cacheSize,
				PageSize:   *pageSize,
				Assoc:      *assoc,
				MemorySize: *memSize,
				FIFODepth:  *fifo,
			},
			Workload: scenario.WorkloadSpec{
				Kind:        scenario.WorkloadProfile,
				Profile:     *profile,
				Refs:        *n,
				ShareKernel: *shareKernel,
				NoPrefault:  !*prefault,
			},
			Protocol: *protoFlag,
			Faults:   *faults,
			Check:    *checkFlag,
		}
		if *buses > 1 {
			spec.Topology = &scenario.TopologySpec{Buses: *buses}
		}
		if *traceFile != "" {
			spec.Workload.Kind = scenario.WorkloadTrace
			spec.Workload.TraceFile = *traceFile
			spec.Workload.Profile = ""
		}
	}
	// Output-side flags modify the spec whatever its source: the
	// Perfetto exporter needs the full event stream retained.
	if *traceOut != "" {
		spec.Obs.Stream = true
	}

	if *dumpSpec {
		canon, err := spec.Canonical()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(canon))
		return
	}

	// Profiling wraps only the simulation itself: the CPU profile
	// covers the run, the heap profile snapshots its end state. Neither
	// can affect results — they read the host, not the machine.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	// RunGuarded contains simulator faults (livelock hard limits,
	// invariant panics) instead of letting them unwind to a raw
	// goroutine trace.
	res, err := scenario.RunGuarded(context.Background(), *spec)
	if err != nil {
		var pe *scenario.PanicError
		if errors.As(err, &pe) {
			fmt.Fprintf(os.Stderr, "vmpsim: simulator fault in %s: %s\n", pe.Name, pe.Message)
			if path, werr := writeFaultDump(pe); werr == nil {
				fmt.Fprintf(os.Stderr, "vmpsim: flight-recorder dump written to %s\n", path)
			} else {
				fmt.Fprintf(os.Stderr, "vmpsim: could not write dump file: %v\n", werr)
			}
			os.Exit(1)
		}
		fatal(err)
	}
	m := res.Machine

	// Write run artifacts before the violation checks so a failing run
	// still leaves its trace behind for inspection.
	sink := m.Sink()
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteTrace(f, sink.Stream()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *dumpOnExit {
		// The dump goes to stderr explicitly: under RunGuarded the sink's
		// automatic dump target is a capture buffer reserved for faults.
		fmt.Fprintln(os.Stderr, "=== FLIGHT RECORDER DUMP: dump-on-exit requested ===")
		sink.DumpRing(os.Stderr)
	}

	if len(res.Violations) != 0 {
		fmt.Fprintln(os.Stderr, "PROTOCOL VIOLATIONS:")
		for _, s := range res.Violations {
			fmt.Fprintln(os.Stderr, " ", s)
		}
		os.Exit(1)
	}

	em := m.Eng.Metrics()
	fmt.Printf("scenario %s (fingerprint %s)\n", res.Spec.Name, res.Fingerprint)
	// The protocol line appears only for non-default protocols, keeping
	// default-protocol output byte-identical across versions.
	if res.Spec.Protocol != "" {
		fmt.Printf("protocol %s\n", res.Spec.Protocol)
	}
	fmt.Printf("simulated %v on %d processor(s); bus utilization %.1f%%\n",
		res.Summary.SimTime(), res.Spec.Machine.Processors, res.Summary.BusUtilPct)
	fmt.Printf("engine: %d events fired, %d process switches, max queue depth %d, %.3g sim-ns/wall-ms (%v wall)\n\n",
		em.EventsFired, em.Switches, em.MaxQueueDepth, em.SimNsPerWallMs(m.Eng.Now()), em.Wall.Round(time.Millisecond))

	t := stats.NewTable("Per-board results",
		"Board", "Refs", "Miss Ratio (%)", "Performance", "WriteBacks", "Inval In", "Downgrades", "Retries", "Recoveries")
	var violations uint64
	for i, b := range m.Boards {
		cs := b.Cache.Stats()
		bs := b.Stats()
		missRatio := 100 * float64(cs.Fills) / float64(bs.Refs)
		t.Add(i, bs.Refs, missRatio, m.Performance(i),
			bs.WriteBacks, bs.InvalidationsIn, bs.DowngradesIn, bs.Retries, bs.Recoveries)
		violations += bs.Violations
	}
	fmt.Println(t)

	if *hist {
		for i, b := range m.Boards {
			h := b.MissLatency()
			fmt.Printf("Board %d miss latency (µs): p50<=%.3g p95<=%.3g p100=%.3g\n%s\n",
				i, h.Percentile(50), h.Percentile(95), h.Percentile(100), h)
		}
	}

	bt := stats.NewTable("Bus transactions", "Type", "Count")
	bst := m.Bus.Stats()
	for _, op := range bus.Ops() {
		if c := bst.Transactions[op]; c > 0 {
			bt.Add(op.String(), c)
		}
	}
	bt.Add("aborts", bst.Aborts)
	bt.Add("bytes moved", bst.BytesMoved)
	fmt.Println(bt)

	if res.Spec.Faults != "" || res.Spec.Check {
		ft := stats.NewTable("Fault injection & invariant watchdog", "Counter", "Value")
		for _, mt := range m.Eng.Recorder().Snapshot() {
			if strings.HasPrefix(mt.Name, "fault/") || strings.HasPrefix(mt.Name, "check/") {
				ft.Add(mt.Name, mt.Value)
			}
		}
		fmt.Println(ft)
	}

	if *phases {
		fmt.Println(sink.PhaseTable())
	}
	if *hotpages > 0 {
		fmt.Println(sink.HotPageTable(*hotpages))
	}

	if *metrics {
		fmt.Println(m.Eng.Recorder().Table("Per-run metrics sink"))
	}

	// Per-board violation counters record protocol violations the boards
	// themselves observed (e.g. a write-back against a privately held
	// frame); a run that saw any must not report success.
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "vmpsim: %d protocol violation(s) observed by boards\n", violations)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmpsim:", err)
	os.Exit(1)
}

// writeFaultDump persists a contained fault's flight-recorder dump and
// panic stack next to the working directory, named by the scenario
// fingerprint so repeated runs of the same spec overwrite rather than
// accumulate.
func writeFaultDump(pe *scenario.PanicError) (string, error) {
	name := pe.Fingerprint
	if name == "" {
		name = "unknown"
	}
	path := fmt.Sprintf("vmpsim-fault-%s.dump", name)
	body := fmt.Sprintf("scenario: %s\nfingerprint: %s\nfault: %s\n\n%s\n--- panic stack ---\n%s\n",
		pe.Name, pe.Fingerprint, pe.Message, pe.Dump, pe.Stack)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
