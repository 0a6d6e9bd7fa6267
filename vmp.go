// Package vmp is a simulator of the VMP multiprocessor — the
// experimental shared-memory machine with software-controlled,
// virtually addressed caches described in "Software-Controlled Caches
// in the VMP Multiprocessor" (Cheriton, Slavenburg & Boyle, Stanford
// STAN-CS-86-1105 / ISCA 1986).
//
// The package is a thin facade over the implementation packages:
//
//	internal/core        the machine: boards, miss handler, protocol
//	internal/cache       the virtually addressed cache hardware
//	internal/monitor     the per-processor bus monitor
//	internal/bus         the shared VMEbus
//	internal/memory      main memory and frame allocation
//	internal/vm          address spaces and two-level page tables
//	internal/copier      the block copier
//	internal/kernel      locks, mailboxes, barriers, scheduler, DMA (§5.4)
//	internal/isa         RISC-style ISA, assembler, machine-code threads
//	internal/trace       memory-reference traces
//	internal/workload    synthetic ATUM-like trace generation
//	internal/baseline    Section 6 comparison protocols
//	internal/queuing     the Section 5.3 bus queuing model
//	internal/experiments every table and figure of the evaluation
//
// Quick start:
//
//	m, err := vmp.New(vmp.Config{Processors: 2})
//	if err != nil { ... }
//	m.EnsureSpace(1)
//	m.RunProgram(0, func(c *vmp.CPU) {
//		c.SetASID(1)
//		c.Store(0x1000, 42)
//	})
//	m.RunProgram(1, func(c *vmp.CPU) {
//		c.SetASID(1)
//		c.Idle(100 * vmp.Microsecond)
//		fmt.Println(c.Load(0x1000)) // 42, via the ownership protocol
//	})
//	m.Run()
package vmp

import (
	"vmp/internal/cache"
	"vmp/internal/core"
	"vmp/internal/sim"
	"vmp/internal/trace"
	"vmp/internal/workload"
)

// Machine is a configured VMP multiprocessor. See core.Machine for the
// full method set; the important entry points are EnsureSpace,
// Prefault, RunTrace, RunProgram, Run, Performance and CheckInvariants.
type Machine = core.Machine

// Config describes a machine: processor count, cache geometry, memory
// size, FIFO depth and timing. The zero value gives the paper's default
// configuration (128 KB 4-way cache with 256-byte pages, 8 MB memory,
// 128-entry FIFO).
type Config = core.Config

// CPU is the program-driven processor front end handed to RunProgram
// bodies: Load/Store/TAS plus kernel-support operations.
type CPU = core.CPU

// Timing bundles the processor-side latency constants.
type Timing = core.Timing

// CacheConfig fixes a cache geometry (page size, rows per way, ways).
type CacheConfig = cache.Config

// Ref is one 4-byte memory reference of a trace.
type Ref = trace.Ref

// Source streams references.
type Source = trace.Source

// Packed is a reference stream stored at 4 bytes per reference, the
// form a scheduler Task holds.
type Packed = trace.Packed

// Time is simulated time in nanoseconds.
type Time = sim.Time

// Convenient duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// New builds a machine.
func New(cfg Config) (*Machine, error) { return core.NewMachine(cfg) }

// DefaultTiming returns the calibrated 16 MHz 68020 timing constants.
func DefaultTiming() Timing { return core.DefaultTiming() }

// CacheGeometry returns a cache configuration for a total size, page
// size and associativity, e.g. CacheGeometry(128<<10, 256, 4).
func CacheGeometry(totalSize, pageSize, assoc int) CacheConfig {
	return cache.Geometry(totalSize, pageSize, assoc)
}

// GenerateTrace produces n references of a named synthetic ATUM-like
// profile: "edit", "compile", "batch" or "multi".
func GenerateTrace(profile string, seed uint64, n int) ([]Ref, error) {
	return workload.Generate(workload.Profile(profile), seed, n)
}

// TraceProfiles lists the standard synthetic trace profiles.
func TraceProfiles() []string {
	ps := workload.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// SliceSource wraps a slice of references as a Source.
func SliceSource(refs []Ref) Source { return trace.NewSliceSource(refs) }

// Pack packs a slice of references, as a scheduler Task takes them.
func Pack(refs []Ref) Packed { return trace.Pack(refs) }
