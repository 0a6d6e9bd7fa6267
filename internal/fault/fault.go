// Package fault is the deterministic fault-injection layer: a seeded,
// per-run fault plan that provokes the hardware edge cases the VMP
// software is built to survive (Sections 3.1-3.4) on demand instead of
// waiting for them to arise incidentally.
//
// A Spec describes *which* faults to inject and at what rates; an
// Injector is the per-run instance, seeded like an experiment workload
// so that the same (spec, seed) pair reproduces the same fault sequence
// byte for byte, serial or parallel. Every injected event is counted in
// the run's stats.Recorder under "fault/..." names.
//
// The injectable fault classes, and why each is survivable:
//
//   - Spurious transient aborts of abortable consistency transactions
//     (read-shared, read-private, assert-ownership). The requester
//     cannot distinguish them from a genuine ownership conflict and
//     takes the retry path. Write-back is never aborted by injection:
//     an aborted write-back with no stale-entry cause has no recovery
//     (the dirty page has nowhere to go) and is fatal by design.
//   - Block-transfer errors on copier transfers (read-shared,
//     read-private, write-back). A failed transfer has no protocol side
//     effects — like an abort, it terminates at the end of the memory
//     reference in flight — and the copier re-issues it with bounded
//     deterministic backoff.
//   - FIFO-depth squeeze and interrupt-word storms: the monitor's
//     effective FIFO capacity is capped and posted words are duplicated,
//     forcing overflow and the software recovery sweep. Duplicate words
//     are safe because interrupt service is idempotent and state-based.
//   - Action-table corruption: a stored entry flips one bit. Injection
//     is restricted to entries currently in the Ignore state, producing
//     a phantom Shared or Private entry. Flipping a live Shared entry
//     would make that board miss a future invalidation, flipping away a
//     Private entry would let a second owner be granted (silent data
//     corruption), and flipping away a Notify entry loses a wakeup that
//     no sweep regenerates — all fatal by design, so never injected.
//     Phantom entries are exactly what the protocol's stale-entry
//     machinery and the invariant watchdog (internal/check) detect and
//     repair.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vmp/internal/bus"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Spec is a fault plan: per-class rates, all zero by default (no
// injection). The zero Spec is valid and injects nothing.
type Spec struct {
	// AbortRate is the probability that an abortable consistency
	// transaction (read-shared, read-private, assert-ownership) is
	// spuriously aborted. Write-back and notify are never aborted.
	AbortRate float64
	// CopyErrRate is the probability that a block transfer (read-shared,
	// read-private, write-back) fails with a transfer error, forcing the
	// copier's bounded re-issue path.
	CopyErrRate float64
	// FIFOCap, when non-zero, caps every monitor's effective FIFO depth,
	// squeezing it below the configured capacity to force overflow.
	FIFOCap int
	// StormRate is the probability that a posted interrupt word is
	// accompanied by a storm of duplicates.
	StormRate float64
	// StormMax is the maximum number of duplicate words per storm
	// (0 selects 3).
	StormMax int
	// FlipRate is the probability, per consistency transaction, that one
	// bit of some board's action-table entry for the transaction's frame
	// is flipped (restricted to survivable entry states; see the package
	// comment).
	FlipRate float64
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.AbortRate > 0 || s.CopyErrRate > 0 || s.FIFOCap > 0 ||
		s.StormRate > 0 || s.FlipRate > 0
}

// String renders the spec in the form Parse accepts, with keys in a
// fixed order so identical specs render identically.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("abort", s.AbortRate)
	add("copy", s.CopyErrRate)
	if s.FIFOCap > 0 {
		parts = append(parts, "fifo="+strconv.Itoa(s.FIFOCap))
	}
	add("storm", s.StormRate)
	if s.StormMax > 0 {
		parts = append(parts, "stormmax="+strconv.Itoa(s.StormMax))
	}
	add("flip", s.FlipRate)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Parse reads a spec of the form "abort=0.05,copy=0.02,fifo=2,
// storm=0.1,stormmax=4,flip=0.02". Unknown keys, malformed values and
// out-of-range rates are errors. "none" and "" parse to the zero Spec.
func Parse(text string) (*Spec, error) {
	s := &Spec{}
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return s, nil
	}
	for _, kv := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("fault: malformed spec element %q (want key=value)", kv)
		}
		switch k {
		case "abort", "copy", "storm", "flip":
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("fault: %s rate %q not in [0,1]", k, v)
			}
			switch k {
			case "abort":
				s.AbortRate = rate
			case "copy":
				s.CopyErrRate = rate
			case "storm":
				s.StormRate = rate
			case "flip":
				s.FlipRate = rate
			}
		case "fifo", "stormmax":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: %s %q not a non-negative integer", k, v)
			}
			if k == "fifo" {
				s.FIFOCap = n
			} else {
				s.StormMax = n
			}
		default:
			known := []string{"abort", "copy", "fifo", "storm", "stormmax", "flip"}
			sort.Strings(known)
			return nil, fmt.Errorf("fault: unknown spec key %q (known: %v)", k, known)
		}
	}
	return s, nil
}

// Injector is the per-run fault source. Create with NewInjector. It is
// engine-confined like everything else in a run: decisions are drawn
// from one deterministic stream in simulation order, so the same
// (spec, seed) pair reproduces the same faults.
type Injector struct {
	spec Spec
	rnd  *sim.Rand

	// Counters, indexed in the run's metrics sink under "fault/..."
	// names.
	aborts, copyErrs, storms, stormWords, flips, flipSkips uint64
}

// NewInjector builds an injector for one run, registering its counters
// in the run's metrics sink under "fault/..." names.
func NewInjector(spec Spec, seed uint64, rec *stats.Recorder) *Injector {
	if spec.StormMax <= 0 {
		spec.StormMax = 3
	}
	i := &Injector{spec: spec, rnd: sim.NewRand(seed ^ 0xfa17fa17fa17fa17)}
	stats.Register(rec, "fault/injected-aborts", &i.aborts)
	stats.Register(rec, "fault/transfer-errors", &i.copyErrs)
	stats.Register(rec, "fault/storms", &i.storms)
	stats.Register(rec, "fault/storm-words", &i.stormWords)
	stats.Register(rec, "fault/table-flips", &i.flips)
	stats.Register(rec, "fault/table-flips-skipped", &i.flipSkips)
	return i
}

// Spec returns the injector's fault plan.
func (i *Injector) Spec() Spec { return i.spec }

// abortable reports whether injection may spuriously abort op: the
// transactions whose requesters have a retry path. Write-back is never
// aborted (fatal by design) and notify has no retry (a lost wakeup
// deadlocks notification locks).
func abortable(op bus.Op) bool {
	return op == bus.ReadShared || op == bus.ReadPrivate || op == bus.AssertOwnership
}

// transferable reports whether op is a copier block transfer that can
// suffer an injected transfer error. Plain (DMA) transfers are excluded:
// the DMA path has no re-issue loop.
func transferable(op bus.Op) bool {
	return op == bus.ReadShared || op == bus.ReadPrivate || op == bus.WriteBack
}

// AbortTransient implements bus.Injector: decide whether to spuriously
// abort this transaction. Rates of zero draw nothing, so disabled fault
// classes leave the stream untouched.
func (i *Injector) AbortTransient(op bus.Op) bool {
	if i.spec.AbortRate <= 0 || !abortable(op) {
		return false
	}
	if !i.rnd.Bool(i.spec.AbortRate) {
		return false
	}
	i.aborts++
	return true
}

// TransferError implements bus.Injector: decide whether this block
// transfer fails and must be re-issued by the copier.
func (i *Injector) TransferError(op bus.Op) bool {
	if i.spec.CopyErrRate <= 0 || !transferable(op) {
		return false
	}
	if !i.rnd.Bool(i.spec.CopyErrRate) {
		return false
	}
	i.copyErrs++
	return true
}

// StormExtra implements monitor.PostInjector: the number of duplicate
// copies to enqueue alongside a posted interrupt word.
func (i *Injector) StormExtra() int {
	if i.spec.StormRate <= 0 || !i.rnd.Bool(i.spec.StormRate) {
		return 0
	}
	n := 1 + i.rnd.Intn(i.spec.StormMax)
	i.storms++
	i.stormWords += uint64(n)
	return n
}

// FIFOCap returns the effective FIFO-depth cap (0 = no squeeze).
func (i *Injector) FIFOCap() int { return i.spec.FIFOCap }

// TableFlip decides whether to corrupt an action-table entry after this
// consistency transaction, and if so on which of nBoards boards and
// which of the entry's two bits. The caller applies the flip (it owns
// the monitors) and reports back through FlipApplied / FlipSkipped.
func (i *Injector) TableFlip(nBoards int) (board, bit int, ok bool) {
	if i.spec.FlipRate <= 0 || nBoards == 0 || !i.rnd.Bool(i.spec.FlipRate) {
		return 0, 0, false
	}
	return i.rnd.Intn(nBoards), i.rnd.Intn(2), true
}

// FlipApplied records that a decided flip was applied.
func (i *Injector) FlipApplied() { i.flips++ }

// FlipSkipped records that a decided flip was suppressed because the
// target entry was in a state whose corruption is fatal by design
// (Private or Notify) or belonged to the in-flight requester.
func (i *Injector) FlipSkipped() { i.flipSkips++ }
