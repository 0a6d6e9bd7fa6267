// Package experiments regenerates every table and figure in the
// paper's evaluation (Section 5) plus the ablations implied by
// Sections 2, 3.3, 5.4 and 6. Each experiment returns a Result holding
// a rendered table (and an ASCII plot for the figures) side by side
// with the values the paper reports, so EXPERIMENTS.md can record
// paper-vs-measured for every artifact.
//
// Experiments are registered once in the Registry table below and
// consumed everywhere else — the CLI, the benchmarks, and the smoke
// tests all iterate the same descriptors. Every experiment is
// self-contained: it builds its own machines and engines through the
// Options helpers, which thread a per-run metrics sink and let RunAll
// execute independent experiments concurrently while keeping each run
// byte-identical to a serial execution.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmp/internal/fault"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Options tunes experiment cost.
type Options struct {
	// Quick shrinks trace lengths and sweep densities for smoke runs
	// and benchmarks.
	Quick bool
	// Seed feeds every stochastic workload. The run layer mixes it with
	// the experiment ID, so each experiment sees its own stream and the
	// result does not depend on which worker ran it or in what order.
	Seed uint64
	// Faults, when non-nil and enabled, injects the given fault plan into
	// every machine an experiment builds (seeded per machine from the
	// experiment seed, so runs stay deterministic).
	Faults *fault.Spec
	// Check registers the protocol invariant watchdog's counters on
	// every machine even when no faults are injected, so they appear in
	// the run metrics. The watchdog checks every machine either way.
	Check bool

	// track collects the engines a run constructs, so the run layer can
	// aggregate engine metrics after the runner returns. It is shared by
	// value copies of Options and nil when a runner is called directly.
	track *engineTrack
}

// DefaultOptions runs experiments at full fidelity.
func DefaultOptions() Options { return Options{Seed: 11} }

func (o Options) traceLen() int {
	if o.Quick {
		return 60_000
	}
	return 450_000
}

// seedFor derives the per-experiment seed: an FNV-1a hash of the ID
// mixed into the base seed through a splitmix64 finalizer. The same
// (base, id) pair always yields the same stream, so serial and parallel
// runs agree byte for byte.
func seedFor(base uint64, id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	x := base ^ h
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D49BB133111EB
	x ^= x >> 31
	return x
}

// Result is one regenerated artifact.
type Result struct {
	ID        string // e.g. "table1", "fig4", "locks"
	Title     string
	Table     *stats.Table
	Plot      *stats.Plot
	PaperNote string // what the paper reports, for comparison

	// Metrics reports the engine activity behind the artifact. It is
	// filled in by the run layer, not by the experiment itself, and is
	// deliberately excluded from the rendered table so tables stay
	// byte-identical across runs.
	Metrics Metrics
}

// String renders the result for a terminal.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		out += r.Table.String()
	}
	if r.Plot != nil {
		out += r.Plot.String()
	}
	if r.PaperNote != "" {
		out += "paper: " + r.PaperNote + "\n"
	}
	return out
}

// Cost classifies an experiment's runtime so callers can budget: Light
// finishes in well under a second even at full fidelity, Moderate in a
// few seconds, Heavy sweeps several machine configurations.
type Cost int

// Cost classes.
const (
	Light Cost = iota
	Moderate
	Heavy
)

// String names the cost class.
func (c Cost) String() string {
	switch c {
	case Light:
		return "light"
	case Moderate:
		return "moderate"
	case Heavy:
		return "heavy"
	default:
		return fmt.Sprintf("Cost(%d)", int(c))
	}
}

// Experiment describes one registered artifact generator.
type Experiment struct {
	ID       string // stable identifier, e.g. "table1"
	Title    string // one-line description
	Artifact string // the paper artifact it reproduces, e.g. "Table 1"
	Cost     Cost
	Run      func(Options) (*Result, error)
}

// Registry is the single table of every experiment, in run order. All
// dispatch — the CLI, benchmarks, smoke tests, RunAll — goes through
// it.
var Registry = []Experiment{
	{"fig1", "processor board organization (diagram artifact)", "Figure 1", Light, Figure1},
	{"table1", "elapsed and bus time per cache miss", "Table 1", Moderate, Table1},
	{"table2", "average cache miss cost (75% clean victims)", "Table 2", Light, Table2},
	{"fig2", "action-table update within a bus transaction", "Figure 2", Light, Figure2Timing},
	{"fig3", "processor performance vs cache miss ratio", "Figure 3", Moderate, Figure3},
	{"fig4", "cold-start miss ratio vs cache size", "Figure 4", Heavy, Figure4},
	{"fig5", "bus utilization vs miss ratio; processors per bus", "Figure 5", Moderate, Figure5},
	{"locks", "test-and-set spinning vs notification locks", "Section 5.4", Moderate, AblationLocks},
	{"protocols", "VMP vs snoopy write-invalidate/write-broadcast vs MIPS-X", "Section 6", Heavy, AblationProtocols},
	{"copier", "block copier vs CPU copy loop", "Section 5.2", Light, AblationCopier},
	{"readprivate", "read-private-on-read hint for unshared regions", "Section 5.4", Moderate, AblationReadPrivate},
	{"scaling", "per-processor performance vs number of processors", "Section 5.3", Heavy, AblationScaling},
	{"fifo", "FIFO depth and overflow recovery", "Section 3.2", Moderate, AblationFIFO},
	{"alias", "virtual-address alias consistency cost", "Section 4.1", Light, AblationAlias},
	{"translation", "translation-consistency (remap) cost", "Section 4.2", Light, AblationTranslation},
	{"clustering", "clustering related data on cache pages", "Section 5.4", Moderate, AblationClustering},
	{"asid", "ASID tags vs cache flush on context switch", "Section 4.1", Moderate, AblationASID},
	{"pagecontention", "false-sharing cost vs page size", "Section 5.4", Moderate, AblationPageContention},
	{"spinfair", "naive vs backoff spinning in machine code", "Section 5.4", Moderate, AblationSpinFairness},
	{"assoc", "miss ratio vs cache associativity", "Section 2", Heavy, AblationAssociativity},
	{"app", "parallel application speedup", "Section 5.3", Heavy, AblationParallelApp},
	{"ipc", "mailbox IPC latency via bus-monitor notification", "Section 5.4", Light, AblationIPC},
	{"workqueue", "shared work queue with notification locking", "Section 5.4", Moderate, AblationWorkQueue},
	{"consistency", "consistency interrupts as effective miss-ratio inflation", "Section 5.1", Moderate, AblationConsistency},
	{"fault-sweep", "protocol survival under deterministic fault injection", "Sections 3.1-3.4", Moderate, FaultSweep},
	{"misscost", "per-phase miss-cost breakdown from the event stream", "Table 2", Moderate, MissCost},
	{"protocol-compare", "coherence protocols under the differential oracle", "Section 3.2", Moderate, ProtocolCompare},
	{"topology", "hierarchical multi-bus scaling vs the queuing model", "Section 5.3", Heavy, AblationTopology},
}

// byID indexes Registry for dispatch.
var byID = func() map[string]*Experiment {
	m := make(map[string]*Experiment, len(Registry))
	for i := range Registry {
		m[Registry[i].ID] = &Registry[i]
	}
	return m
}()

// All returns the registered experiments in run order.
func All() []Experiment {
	out := make([]Experiment, len(Registry))
	copy(out, Registry)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (*Experiment, bool) {
	e, ok := byID[id]
	return e, ok
}

// IDs returns the experiment identifiers in run order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i := range Registry {
		out[i] = Registry[i].ID
	}
	return out
}

// Describe returns a one-line description per experiment ID.
func Describe() map[string]string {
	out := make(map[string]string, len(Registry))
	for i := range Registry {
		out[Registry[i].ID] = Registry[i].Title
	}
	return out
}

// UnknownIDError reports a Run request for an ID that is not
// registered, carrying the valid IDs for the caller to print.
type UnknownIDError struct {
	ID    string
	Known []string // sorted
}

// Error implements error.
func (e *UnknownIDError) Error() string {
	return fmt.Sprintf("experiments: unknown id %q (known: %v)", e.ID, e.Known)
}

// Run executes one experiment by ID.
func Run(id string, o Options) (*Result, error) {
	e, ok := byID[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, &UnknownIDError{ID: id, Known: known}
	}
	return runOne(e, o, &engineTrack{})
}

// runOne executes one experiment with its derived seed and the given
// fresh engine tracker, and stamps the aggregated engine metrics on the
// result. It is the single execution path shared by Run, RunAll and the
// event goldens, so an experiment behaves identically however it is
// invoked.
//
// A simulator fault (a livelock's retry hard limit, a protocol
// assertion) panics out of a simulated process as a *sim.ProcessPanic.
// runOne returns it, wrapped, as the experiment's error and ends the
// processes of the tracker's live engine, the machine that faulted, so
// one faulty experiment neither ends the process nor leaves coroutines
// behind. Any other panic is a bug in the runner and is raised again.
func runOne(e *Experiment, o Options, track *engineTrack) (res *Result, err error) {
	ro := o
	ro.Seed = seedFor(o.Seed, e.ID)
	ro.track = track
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		pp, ok := r.(*sim.ProcessPanic)
		if !ok {
			panic(r)
		}
		if track.live != nil {
			track.live.KillProcesses()
		}
		res, err = nil, fmt.Errorf("%s: simulator fault: %w", e.ID, pp)
	}()
	start := time.Now()
	if res, err = e.Run(ro); err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	res.Metrics = ro.track.metrics(time.Since(start))
	return res, nil
}

// RunAll executes every registered experiment and returns the results
// in Registry order. Up to workers experiments run concurrently
// (workers <= 0 selects GOMAXPROCS); each experiment's result is
// byte-identical to a serial run because seeds derive from the
// experiment ID, not from scheduling order. Failed experiments are
// omitted from the results and their errors joined.
func RunAll(o Options, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(Registry) {
		workers = len(Registry)
	}

	results := make([]*Result, len(Registry))
	errs := make([]error, len(Registry))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(Registry) {
					return
				}
				results[i], errs[i] = runOne(&Registry[i], o, &engineTrack{})
			}
		}()
	}
	wg.Wait()

	out := make([]*Result, 0, len(Registry))
	for _, r := range results {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, errors.Join(errs...)
}
