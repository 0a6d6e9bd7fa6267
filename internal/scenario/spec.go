// Package scenario is the declarative run layer: one versioned,
// serializable Spec captures an entire simulation run as data —
// machine geometry and timing, workload, kernel attachment and
// scheduler policy, fault plan, checker and retry policy, and
// observability configuration. A Spec round-trips through canonical
// JSON losslessly and carries a content fingerprint: two Specs with the
// same fingerprint produce byte-identical runs (event streams and
// metrics), serially or in parallel, because every stochastic stream in
// the simulator is seeded from the Spec alone.
//
// On top of Spec, Grid (grid.go) expands parameter axes — page size ×
// processors × workload × fault class × … — into concrete Specs and
// drives them through a parallel run engine (sweep.go), emitting
// machine-readable per-cell results. The paper's whole evaluation is a
// parameter sweep (Tables 1-2, Figures 2-5 vary page size, cache size,
// processor count and workload); this package turns "add a scenario"
// from a code change into a data change.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"vmp/internal/bus"
	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/fault"
	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/vm"
	"vmp/internal/workload"
)

// Version is the current Spec format version.
const Version = 1

// Spec describes one complete run as data. The zero Spec is valid:
// Normalize fills every field with the documented default (one
// processor, 128 KB / 256 B / 4-way cache, 8 MB memory, the edit
// profile, no faults). All fields are plain data — a Spec marshals to
// JSON and back losslessly (see Canonical and ParseSpec).
type Spec struct {
	// Version is the spec format version (0 normalizes to the current
	// Version; anything newer is rejected).
	Version int `json:"version"`
	// Name identifies the scenario in reports and sweep results.
	Name string `json:"name,omitempty"`
	// Seed feeds every stochastic stream of the run: workload
	// generation, fault injection, program interleaving. 0 normalizes to
	// the repo-wide default 11.
	Seed uint64 `json:"seed"`

	Machine  MachineSpec  `json:"machine"`
	Workload WorkloadSpec `json:"workload"`
	// Kernel, when non-nil, attaches the kernel layer (uncached global
	// region, notification dispatch) and optionally a round-robin
	// scheduler per board.
	Kernel *KernelSpec `json:"kernel,omitempty"`
	// Topology selects the interconnect shape. Omitted — or any shape
	// with buses <= 1 — is the classic single shared VMEbus and
	// normalizes away entirely, so pre-existing spec fingerprints are
	// unchanged.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Protocol selects the coherence protocol by registry name ("vmp2",
	// "vmp3", "rlt"). Empty or "vmp2" normalizes to empty: the default
	// protocol adds nothing to the canonical form, so pre-existing spec
	// fingerprints are unchanged.
	Protocol string `json:"protocol,omitempty"`
	// Faults is a fault-injection plan in internal/fault's textual form,
	// e.g. "abort=0.05,copy=0.02,fifo=2,storm=0.1,flip=0.02". Empty or
	// "none" injects nothing.
	Faults string `json:"faults,omitempty"`
	// Check adds the protocol invariant watchdog's counters to the run
	// summary even with no faults (an enabled fault plan implies it).
	// The watchdog checks every run either way.
	Check bool    `json:"check,omitempty"`
	Obs   ObsSpec `json:"obs,omitempty"`
}

// MachineSpec is the serializable machine geometry and timing — the
// data form of core.Config's plain fields.
type MachineSpec struct {
	Processors int `json:"processors,omitempty"`
	// CacheSize is the total per-board cache capacity in bytes.
	CacheSize int `json:"cache_size,omitempty"`
	// PageSize is the cache page size: 128, 256 or 512 in the prototype.
	PageSize int `json:"page_size,omitempty"`
	// Assoc is the cache associativity (1-4 in the prototype).
	Assoc int `json:"assoc,omitempty"`
	// MemorySize is the shared main-memory size in bytes.
	MemorySize int `json:"memory_size,omitempty"`
	// FIFODepth is the bus-monitor FIFO capacity (0 = the prototype's
	// 128).
	FIFODepth int `json:"fifo_depth,omitempty"`
	// Timing overrides the processor-side latency constants when
	// non-nil (sim.Time fields marshal as nanosecond integers).
	Timing *core.Timing `json:"timing,omitempty"`
	// BusTiming overrides the bus latency constants when non-nil.
	BusTiming *bus.Timing `json:"bus_timing,omitempty"`
	// Retry overrides the protocol retry policy when non-nil.
	Retry *core.RetryPolicy `json:"retry,omitempty"`
}

// Workload kinds.
const (
	// WorkloadProfile replays a synthetic ATUM-like trace profile
	// (edit/compile/batch/multi) on every board, each board with its own
	// seed and ASID, kernel region sliced per board unless ShareKernel.
	WorkloadProfile = "profile"
	// WorkloadTrace replays a binary trace file on every board.
	WorkloadTrace = "trace"
	// WorkloadAsm assembles a machine-code program and executes it on
	// every board through the full cache/miss-handler path.
	WorkloadAsm = "asm"
	// WorkloadNone attaches no driver; useful for specs that only
	// describe a machine (e.g. as an experiment's machine axis).
	WorkloadNone = "none"
)

// WorkloadSpec describes what every board runs.
type WorkloadSpec struct {
	// Kind selects the workload family: "profile" (default), "trace",
	// "asm" or "none".
	Kind string `json:"kind,omitempty"`
	// Profile is the synthetic trace profile for WorkloadProfile
	// (default "edit").
	Profile string `json:"profile,omitempty"`
	// TraceFile is the binary trace path for WorkloadTrace.
	TraceFile string `json:"trace_file,omitempty"`
	// Refs is the per-board reference count (default 200000). For
	// WorkloadAsm it caps execution steps instead (0 = the ISA default).
	Refs int `json:"refs,omitempty"`
	// ShareKernel lets all boards share kernel-region frames (contended)
	// instead of slicing the kernel region per board.
	ShareKernel bool `json:"share_kernel,omitempty"`
	// NoPrefault skips pre-faulting the trace's pages, so the run
	// includes cold page faults.
	NoPrefault bool `json:"no_prefault,omitempty"`
	// Asm is the assembly source for WorkloadAsm (internal/isa syntax).
	Asm string `json:"asm,omitempty"`
	// AsmBase is the load address for WorkloadAsm (default 0x1000).
	AsmBase uint32 `json:"asm_base,omitempty"`
}

// TopologySpec is the serializable interconnect shape (the data form
// of bus.Topology): boards grouped onto local bus segments joined by an
// inclusion-filtered inter-bus link. The single-bus default carries no
// stanza at all in the canonical form.
type TopologySpec struct {
	// Buses is the number of local bus segments (<= 1 means the classic
	// single shared VMEbus).
	Buses int `json:"buses,omitempty"`
	// BoardsPerBus seats board i on segment i/BoardsPerBus; 0 spreads
	// the boards evenly across the segments.
	BoardsPerBus int `json:"boards_per_bus,omitempty"`
}

// KernelSpec attaches the kernel layer and optionally a scheduler.
type KernelSpec struct {
	// UncachedPages sizes the non-cached global region in VM pages
	// (default 1).
	UncachedPages int `json:"uncached_pages,omitempty"`
	// Sched, when non-nil, timeslices each board's workload across Tasks
	// address spaces through the kernel's round-robin scheduler instead
	// of a single trace driver.
	Sched *SchedSpec `json:"sched,omitempty"`
}

// SchedSpec is the serializable scheduler policy.
type SchedSpec struct {
	// Tasks is the number of timesliced tasks per board (default 2).
	Tasks int `json:"tasks,omitempty"`
	// QuantumUS is the timeslice in microseconds (0 = the kernel's 2 ms
	// default).
	QuantumUS int `json:"quantum_us,omitempty"`
	// SwitchInstr is the context-switch cost in instructions (0 = the
	// kernel's default).
	SwitchInstr int `json:"switch_instr,omitempty"`
	// FlushOnSwitch empties the cache at every switch — what a virtually
	// addressed cache without ASID tags would require.
	FlushOnSwitch bool `json:"flush_on_switch,omitempty"`
}

// ObsSpec configures the observability sink.
type ObsSpec struct {
	// Stream retains the full event stream (required for Perfetto export
	// and event-stream digests).
	Stream bool `json:"stream,omitempty"`
	// RingSize is the flight-recorder capacity in events (0 = default).
	RingSize int `json:"ring_size,omitempty"`
}

// Normalize fills defaults in place and validates the result, so a
// normalized Spec is both runnable and canonical: two specs meaning the
// same run normalize to identical values. It reports the first problem
// as an error (machine geometry errors are core.ConfigError values).
func (s *Spec) Normalize() error {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Version != Version {
		return fmt.Errorf("scenario: unsupported spec version %d (current %d)", s.Version, Version)
	}
	if s.Seed == 0 {
		s.Seed = 11
	}

	m := &s.Machine
	if m.Processors == 0 {
		m.Processors = 1
	}
	if m.CacheSize == 0 {
		m.CacheSize = 128 << 10
	}
	if m.PageSize == 0 {
		m.PageSize = 256
	}
	if m.Assoc == 0 {
		m.Assoc = 4
	}
	if m.MemorySize == 0 {
		m.MemorySize = 8 << 20
	}

	// Canonicalize the topology: the single-bus default carries no
	// stanza (fingerprint compatibility); a multi-bus shape gets its
	// boards-per-bus resolved so equivalent shapes fingerprint
	// identically.
	if t := s.Topology; t != nil {
		if t.Buses <= 1 {
			s.Topology = nil
		} else if t.BoardsPerBus == 0 {
			t.BoardsPerBus = (m.Processors + t.Buses - 1) / t.Buses
		}
	}

	w := &s.Workload
	if w.Kind == "" {
		w.Kind = WorkloadProfile
	}
	switch w.Kind {
	case WorkloadProfile:
		if w.Profile == "" {
			w.Profile = string(workload.Edit)
		}
		known := false
		for _, p := range workload.Profiles() {
			if string(p) == w.Profile {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("scenario: unknown workload profile %q (known: %v)", w.Profile, workload.Profiles())
		}
	case WorkloadTrace:
		if w.TraceFile == "" {
			return fmt.Errorf("scenario: workload kind %q requires trace_file", w.Kind)
		}
	case WorkloadAsm:
		if strings.TrimSpace(w.Asm) == "" {
			return fmt.Errorf("scenario: workload kind %q requires asm source", w.Kind)
		}
		if w.AsmBase == 0 {
			w.AsmBase = 0x1000
		}
		if w.AsmBase%4 != 0 {
			return fmt.Errorf("scenario: unaligned asm_base %#x", w.AsmBase)
		}
	case WorkloadNone:
	default:
		return fmt.Errorf("scenario: unknown workload kind %q", w.Kind)
	}
	if w.Refs == 0 && w.traceDriven() {
		w.Refs = 200_000
	}
	if w.Refs < 0 {
		return fmt.Errorf("scenario: negative refs %d", w.Refs)
	}

	if k := s.Kernel; k != nil {
		if k.UncachedPages == 0 {
			k.UncachedPages = 1
		}
		if sc := k.Sched; sc != nil {
			if !w.traceDriven() {
				return fmt.Errorf("scenario: kernel scheduler requires a profile or trace workload, not %q", w.Kind)
			}
			if sc.Tasks == 0 {
				sc.Tasks = 2
			}
			if sc.Tasks < 1 {
				return fmt.Errorf("scenario: scheduler tasks %d; need at least 1", sc.Tasks)
			}
			if m.Processors*sc.Tasks > 254 {
				return fmt.Errorf("scenario: %d processors x %d tasks exceeds the 254 usable ASIDs", m.Processors, sc.Tasks)
			}
		}
	}

	// Without share_kernel, board i's kernel region moves up by i<<24
	// (streamKey.stream); past maxPrivateKernelBoards boards the last
	// kernel stack reaches the page-table space and the run faults.
	const maxPrivateKernelBoards = int((vm.PTSpaceBase-workload.KernelStackTop)>>24) + 1
	if !w.ShareKernel && w.traceDriven() && m.Processors > maxPrivateKernelBoards {
		return fmt.Errorf("scenario: %d processors with a private kernel region each; at most %d fit below the page-table space (set workload.share_kernel)",
			m.Processors, maxPrivateKernelBoards)
	}

	// Canonicalize the protocol: the default protocol is spelled "" so
	// it stays out of the canonical JSON (fingerprint compatibility).
	if s.Protocol == protocol.DefaultName {
		s.Protocol = ""
	}
	if _, err := protocol.Get(s.Protocol); err != nil {
		return err
	}

	// Canonicalize the fault plan through the fault package's own
	// round-trip, so equivalent plans fingerprint identically.
	fs, err := fault.Parse(s.Faults)
	if err != nil {
		return err
	}
	if fs.Enabled() {
		s.Faults = fs.String()
		s.Check = true // an enabled fault plan implies the watchdog
	} else {
		s.Faults = ""
	}

	// Machine geometry is validated by the single core.Config.Validate.
	cfg := s.Machine.Config()
	cfg.Topology = s.topology()
	return cfg.Validate()
}

// traceDriven reports whether the workload replays a reference stream
// on every board: a profile or a trace file.
func (w *WorkloadSpec) traceDriven() bool {
	return w.Kind == WorkloadProfile || w.Kind == WorkloadTrace
}

// tasksPer is the scheduler's task count per board, 0 without a
// scheduler.
func (s *Spec) tasksPer() int {
	if s.Kernel == nil || s.Kernel.Sched == nil {
		return 0
	}
	return s.Kernel.Sched.Tasks
}

// topology converts the stanza to the bus package's value form (the
// zero value for the single-bus default).
func (s *Spec) topology() bus.Topology {
	if s.Topology == nil {
		return bus.Topology{}
	}
	return bus.Topology{Buses: s.Topology.Buses, BoardsPerBus: s.Topology.BoardsPerBus}
}

// Config converts the machine description to a default-filled
// core.Config (geometry, timing and retry policy only — the fault
// plan, watchdog and obs sink are attached by Spec.config).
func (ms MachineSpec) Config() core.Config {
	cfg := core.Config{
		Processors: ms.Processors,
		Cache:      cache.Geometry(ms.CacheSize, ms.PageSize, ms.Assoc),
		MemorySize: ms.MemorySize,
		FIFODepth:  ms.FIFODepth,
	}
	if ms.Timing != nil {
		cfg.Timing = *ms.Timing
	}
	if ms.BusTiming != nil {
		cfg.BusTiming = *ms.BusTiming
	}
	if ms.Retry != nil {
		cfg.Retry = *ms.Retry
	}
	cfg.FillDefaults()
	return cfg
}

// config builds the full core.Config for a normalized spec: geometry
// plus fault plan, watchdog and observability sink.
func (s *Spec) config() (core.Config, error) {
	cfg := s.Machine.Config()
	cfg.Topology = s.topology()
	if s.Protocol != "" {
		cfg.Protocol = s.Protocol
	}
	fs, err := fault.Parse(s.Faults)
	if err != nil {
		return cfg, err
	}
	if fs.Enabled() {
		cfg.Faults = fs
		cfg.FaultSeed = s.Seed
	}
	cfg.Watchdog = s.Check
	cfg.Obs = &obs.Config{Stream: s.Obs.Stream, RingSize: s.Obs.RingSize}
	return cfg, nil
}

// SchedPolicy converts a SchedSpec to the kernel's policy type.
func (sc SchedSpec) quantum() sim.Time { return sim.Time(sc.QuantumUS) * sim.Microsecond }

// normalized returns a normalized deep copy of spec, leaving the
// caller's spec alone.
func normalized(spec Spec) (Spec, error) {
	c, err := spec.clone()
	if err != nil {
		return Spec{}, err
	}
	if err := c.Normalize(); err != nil {
		return Spec{}, err
	}
	return *c, nil
}

// clone deep-copies the spec (pointer fields included) through its
// JSON form, so normalizing the copy never mutates the original.
func (s *Spec) clone() (*Spec, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var c Spec
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// Canonical returns the canonical JSON encoding of the spec: the
// normalized form marshalled compactly with fields in declaration
// order. Two specs describing the same run have identical canonical
// encodings. The receiver is not modified.
func (s Spec) Canonical() ([]byte, error) {
	c, err := normalized(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Fingerprint returns the content fingerprint of the spec: an FNV-1a
// hash of the canonical JSON, rendered as 16 hex digits. Equal
// fingerprints imply byte-identical runs: every stochastic stream in
// the simulator derives from fields covered by the fingerprint.
func (s Spec) Fingerprint() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	h := uint64(14695981039346656037)
	for _, b := range c {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h), nil
}

// ParseSpec reads a Spec from JSON, rejecting unknown fields (a typo in
// a scenario file should fail loudly, not silently run the default).
// The result is not yet normalized.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return &s, nil
}

// ReadSpecFile loads and normalizes a Spec from a JSON file.
func ReadSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Normalize(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
