// Package check is the protocol invariant watchdog: an online oracle
// that validates the VMP two-state ownership protocol at every
// consistency transaction and repairs detectable action-table
// corruption at quiescence.
//
// The watchdog maintains a *shadow* of every board's action-table roles
// (owner / sharer per frame), derived purely from observed bus traffic.
// The shadow is exact in a fault-free execution because every
// action-table mutation in the machine is a bus-visible side effect
// (UpdateFromOwn of the requester's own transactions); a silent clean
// eviction leaves the table entry stale *and* the shadow role stale, so
// the two stay in lock-step. Injected table corruption (bit flips that
// bypass the bus) breaks the lock-step, and that divergence is exactly
// what the watchdog detects:
//
//   - An aborted transaction with no shadow cause (no Private entry
//     anywhere for read-shared / read-private / assert-ownership; no
//     foreign role at all for write-back) is a phantom abort from a
//     corrupted entry.
//   - At quiescence, a table entry claiming a role the shadow never
//     granted (Private without shadow ownership, Shared with neither a
//     held frame nor a shadow sharer role) is detected and repaired.
//
// Invariants checked per transaction:
//
//   - single private owner: a successful ownership acquisition while
//     the shadow records a different owner is a violation;
//   - shared/private exclusion: a successful read-shared while any
//     owner exists is a violation;
//   - no aborted write-back without cause: write-back aborts are legal
//     only from stale (or corrupted) Shared entries; the watchdog
//     separates the two;
//   - flat-memory write-back integrity: only the shadow owner may write
//     a page back — the guard that keeps the flat-memory data oracle
//     trustworthy.
//
// Per-transaction checks use only the shadow (never the boards' local
// state): board frame maps are updated when the board's coroutine
// resumes, at or after the end of the bus transaction, so comparing
// them mid-transaction would race with legal update windows. Table
// versus board-state comparison happens only in FinalSweep, at
// quiescence.
package check

import (
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/monitor"
	"vmp/internal/protocol"
	"vmp/internal/stats"
)

// Hold is a board's software page-state for one frame, as exposed to
// the watchdog.
type Hold uint8

const (
	HoldNone    Hold = iota // frame not held
	HoldShared              // held with a shared copy
	HoldPrivate             // held privately (owned)
)

// String names the hold state.
func (h Hold) String() string {
	switch h {
	case HoldNone:
		return "none"
	case HoldShared:
		return "shared"
	case HoldPrivate:
		return "private"
	default:
		return fmt.Sprintf("Hold(%d)", uint8(h))
	}
}

// BoardView is the watchdog's read/repair window into one board. All
// methods are only called at quiescent points except ID.
type BoardView interface {
	// ID identifies the board.
	ID() int
	// Hold returns the board's software page-state for a frame.
	Hold(frame uint32) Hold
	// Protected reports whether the frame is under deliberate region
	// protection (DMA guard), whose Private table entry is legal without
	// a held page.
	Protected(frame uint32) bool
	// Action reads the board's action-table entry for a frame.
	Action(frame uint32) monitor.Action
	// RepairAction rewrites a corrupted table entry (local-side write;
	// the machine is quiescent, no bus transaction is modelled).
	RepairAction(frame uint32, a monitor.Action)
	// ForEachEntry visits every non-Ignore action-table entry in frame
	// order.
	ForEachEntry(fn func(frame uint32, act monitor.Action))
	// ForEachHeld visits every held frame in frame order.
	ForEachHeld(fn func(frame uint32, h Hold))
}

// shadowFrame is the watchdog's bus-derived role record for one frame.
type shadowFrame struct {
	owner   int // board ID, or -1
	sharers boardSet
}

// boardSet is a set of board IDs, one bit per ID. Board IDs have no
// upper bound, so it grows a word at a time past 64.
type boardSet []uint64

func (b *boardSet) add(id int) {
	for len(*b) <= id/64 {
		*b = append(*b, 0)
	}
	(*b)[id/64] |= 1 << (id % 64)
}

func (b boardSet) remove(id int) {
	if id/64 < len(b) {
		b[id/64] &^= 1 << (id % 64)
	}
}

func (b boardSet) has(id int) bool {
	return id/64 < len(b) && b[id/64]&(1<<(id%64)) != 0
}

// hasOther reports whether the set holds a board other than id, which
// may be bus.NoRequester.
func (b boardSet) hasOther(id int) bool {
	for w, bits := range b {
		if id >= 0 && w == id/64 {
			bits &^= 1 << (id % 64)
		}
		if bits != 0 {
			return true
		}
	}
	return false
}

// Watchdog validates protocol invariants online. Create with New; it is
// engine-confined like the rest of a run.
type Watchdog struct {
	pageSize int
	frames   map[uint32]*shadowFrame
	views    []BoardView
	// expectCorruption relaxes corruption findings from violations to
	// counted detections: set when the fault plan injects table flips,
	// so detected-and-repaired corruption is the *passing* outcome.
	expectCorruption bool
	// oracle holds the per-protocol relaxations (zero value = the
	// strict vmp2 contract); see protocol.OracleSpec.
	oracle protocol.OracleSpec

	// onViolation, when set, fires for every recorded violation — the
	// machine uses it to dump the flight recorder the moment the first
	// violation happens, while the surrounding events are still in the
	// ring.
	onViolation func(msg string)

	violations []string

	// Counters, indexed in the run's metrics sink under "check/..."
	// names.
	transactions, abortedWB, phantomAb, unownedWB, tableCorr, repairs uint64
}

// maxViolations caps the recorded violation list (the count keeps
// rising in the counter-free sense that later duplicates add nothing).
const maxViolations = 64

// New creates a watchdog for a machine whose cache-page frames are
// pageSize bytes, registering its counters under "check/..." names
// (none when rec is nil; the watchdog checks all the same).
func New(rec *stats.Recorder, pageSize int) *Watchdog {
	w := &Watchdog{pageSize: pageSize, frames: make(map[uint32]*shadowFrame)}
	stats.Register(rec, "check/transactions", &w.transactions)
	stats.Register(rec, "check/aborted-write-backs", &w.abortedWB)
	stats.Register(rec, "check/phantom-aborts", &w.phantomAb)
	stats.Register(rec, "check/unowned-write-backs", &w.unownedWB)
	stats.Register(rec, "check/table-corruptions-detected", &w.tableCorr)
	stats.Register(rec, "check/table-repairs", &w.repairs)
	return w
}

// Attach registers a board's view for the quiescent sweep.
func (w *Watchdog) Attach(v BoardView) { w.views = append(w.views, v) }

// SetOracle installs the protocol's oracle contract (the zero
// OracleSpec, the default, is the strict vmp2 contract).
func (w *Watchdog) SetOracle(o protocol.OracleSpec) { w.oracle = o }

// SetExpectCorruption marks the run as one whose fault plan corrupts
// action tables: corruption findings count as detections instead of
// violations.
func (w *Watchdog) SetExpectCorruption(on bool) { w.expectCorruption = on }

// SetViolationHook registers fn to be called with each recorded
// violation message, at the moment it is recorded (nil detaches).
func (w *Watchdog) SetViolationHook(fn func(msg string)) { w.onViolation = fn }

// Violations returns the violations recorded so far.
func (w *Watchdog) Violations() []string { return w.violations }

func (w *Watchdog) violate(format string, args ...interface{}) {
	if len(w.violations) < maxViolations {
		msg := fmt.Sprintf(format, args...)
		w.violations = append(w.violations, msg)
		if w.onViolation != nil {
			w.onViolation(msg)
		}
	}
}

// corrupt records a corruption finding: a detection when the fault plan
// injects flips, a violation otherwise.
func (w *Watchdog) corrupt(format string, args ...interface{}) {
	w.tableCorr++
	if !w.expectCorruption {
		w.violate(format, args...)
	}
}

func (w *Watchdog) frame(f uint32) *shadowFrame {
	sf := w.frames[f]
	if sf == nil {
		sf = &shadowFrame{owner: -1}
		w.frames[f] = sf
	}
	return sf
}

// OnTransaction observes one bus transaction and its result. It is
// called from the bus observer hook, under the bus mutual exclusion,
// after the transaction's table effects are applied.
func (w *Watchdog) OnTransaction(tx bus.Transaction, res bus.Result) {
	if !tx.Op.ConsistencyRelated() && tx.Op != bus.WriteActionTable {
		return
	}
	w.transactions++
	f := tx.PAddr / uint32(w.pageSize)

	if res.Aborted {
		w.observeAbort(tx, res, f)
		return
	}
	if res.TransferErr {
		// A failed transfer has no protocol side effects by construction;
		// the shadow must not move either.
		return
	}
	sf := w.frame(f)
	switch tx.Op {
	case bus.ReadShared:
		if sf.owner != -1 {
			if w.oracle.AllowSelfOwnedRead && sf.owner == tx.Requester {
				// A reverse-lookup-table protocol resolves own synonyms
				// locally, so a stale own-ownership record is legal here;
				// the read demotes it to a sharer role.
				sf.owner = -1
			} else {
				w.violate("read-shared of frame %d by board %d succeeded while board %d owns it",
					f, tx.Requester, sf.owner)
			}
		}
		if tx.Requester != bus.NoRequester {
			sf.sharers.add(tx.Requester)
		}
	case bus.ReadExclusive:
		if res.SharedSeen {
			// Shared line asserted: the grant was downgraded to a shared
			// copy; any recorded owner must have objected (aborted), so a
			// surviving owner here is a violation just like read-shared.
			if sf.owner != -1 && sf.owner != tx.Requester {
				w.violate("read-exclusive of frame %d by board %d granted shared while board %d owns it",
					f, tx.Requester, sf.owner)
			}
			if sf.owner == tx.Requester {
				sf.owner = -1
			}
			if tx.Requester != bus.NoRequester {
				sf.sharers.add(tx.Requester)
			}
		} else {
			// Exclusive-clean grant: legal only when nobody else is on
			// record at all — a foreign Shared entry would have asserted
			// the line (table and shadow move in lock-step), so a foreign
			// shadow role here means a lost assertion.
			if sf.owner != -1 && sf.owner != tx.Requester {
				w.violate("read-exclusive of frame %d by board %d granted exclusive while board %d owns it",
					f, tx.Requester, sf.owner)
			}
			if sf.sharers.hasOther(tx.Requester) {
				w.corrupt("read-exclusive of frame %d by board %d granted exclusive despite foreign sharers on record",
					f, tx.Requester)
			}
			if tx.Requester != bus.NoRequester {
				sf.owner = tx.Requester
				sf.sharers.remove(tx.Requester)
			}
		}
	case bus.ReadPrivate, bus.AssertOwnership:
		if sf.owner != -1 && sf.owner != tx.Requester {
			w.violate("%v of frame %d by board %d succeeded while board %d owns it",
				tx.Op, f, tx.Requester, sf.owner)
		}
		if tx.Requester != bus.NoRequester {
			sf.owner = tx.Requester
			sf.sharers.remove(tx.Requester)
		}
	case bus.WriteBack:
		// Only the owner may write main memory: the guard that keeps the
		// flat-memory data oracle current.
		if sf.owner != tx.Requester {
			w.unownedWB++
			w.violate("write-back of frame %d by board %d which does not own it (owner %d)",
				f, tx.Requester, sf.owner)
		}
		if sf.owner == tx.Requester {
			sf.owner = -1
		}
		if tx.Requester != bus.NoRequester {
			if tx.Downgrade {
				sf.sharers.add(tx.Requester)
			} else {
				sf.sharers.remove(tx.Requester)
			}
		}
	case bus.WriteActionTable:
		if tx.Requester == bus.NoRequester {
			return
		}
		switch monitor.Action(tx.Action & 3) {
		case monitor.Ignore, monitor.Notify:
			if sf.owner == tx.Requester {
				sf.owner = -1
			}
			sf.sharers.remove(tx.Requester)
		case monitor.Shared:
			if sf.owner == tx.Requester {
				sf.owner = -1
			}
			sf.sharers.add(tx.Requester)
		case monitor.Private:
			sf.owner = tx.Requester
			sf.sharers.remove(tx.Requester)
		}
	}
}

// observeAbort classifies an aborted transaction: legal cause, injected
// spurious abort, or phantom abort from a corrupted table entry.
func (w *Watchdog) observeAbort(tx bus.Transaction, res bus.Result, f uint32) {
	if res.SpuriousAbort {
		return // injected; the requester's retry path is the test
	}
	sf := w.frames[f]
	switch tx.Op {
	case bus.WriteBack:
		w.abortedWB++
		// Legal only from a stale Shared entry (or a competing owner's
		// Private entry, itself a violation caught on the success path):
		// some foreign board must hold a shadow role on the frame.
		if sf != nil && (sf.sharers.hasOther(tx.Requester) || sf.owner != -1 && sf.owner != tx.Requester) {
			return
		}
		w.phantomAb++
		w.corrupt("write-back of frame %d by board %d aborted with no stale sharer on record",
			f, tx.Requester)
	case bus.ReadShared, bus.ReadPrivate, bus.AssertOwnership, bus.Notify, bus.ReadExclusive:
		// Monitors abort these only from a Private entry, which the
		// shadow records as an owner (possibly the requester itself: the
		// own-alias abort).
		if sf == nil || sf.owner == -1 {
			w.phantomAb++
			w.corrupt("%v of frame %d by board %d aborted with no owner on record",
				tx.Op, f, tx.Requester)
		}
	}
}

// FinalSweep validates every board's action table against its software
// page-state and the shadow, repairing detected corruption so the
// strict post-run consistency checks see a sane table. It must only be
// called at a quiescent point (no transaction in flight, FIFOs
// drained); mid-run the tables legally lag the boards.
func (w *Watchdog) FinalSweep() {
	for _, v := range w.views {
		id := v.ID()
		// Held frames: the entry must reflect at least the protection the
		// state requires, and private holds must match the shadow owner.
		v.ForEachHeld(func(f uint32, h Hold) {
			act := v.Action(f)
			switch h {
			case HoldShared:
				if act != monitor.Shared {
					w.corrupt("board %d: shared frame %d has action %v", id, f, act)
					w.repair(v, f, monitor.Shared)
				}
			case HoldPrivate:
				if act != monitor.Private {
					w.corrupt("board %d: private frame %d has action %v", id, f, act)
					w.repair(v, f, monitor.Private)
				}
				if sf := w.frames[f]; sf == nil || sf.owner != id {
					w.violate("board %d holds frame %d privately but the bus never granted it ownership", id, f)
				}
			}
		})
		// Table entries with no held frame: stale Shared entries are legal
		// (silent clean eviction) and are mirrored by a shadow sharer
		// role; a Shared entry with no shadow role, or a Private entry on
		// a frame neither held nor protected, is corruption.
		v.ForEachEntry(func(f uint32, act monitor.Action) {
			if v.Hold(f) != HoldNone {
				return // checked above
			}
			switch act {
			case monitor.Shared:
				if sf := w.frames[f]; sf == nil || !sf.sharers.has(id) {
					w.corrupt("board %d: phantom shared entry for frame %d", id, f)
					w.repair(v, f, monitor.Ignore)
				}
			case monitor.Private:
				if v.Protected(f) {
					return
				}
				if w.oracle.StalePrivateOK {
					if sf := w.frames[f]; sf != nil && sf.owner == id {
						// A silently evicted exclusive-clean page: the
						// entry is stale but mirrored by the stale shadow
						// ownership, exactly like a stale Shared entry.
						return
					}
				}
				w.corrupt("board %d: phantom private entry for frame %d", id, f)
				w.repair(v, f, monitor.Ignore)
			case monitor.Notify:
				// Notification watch entries live on never-cached frames;
				// nothing to cross-check.
			}
		})
	}
}

// repair rewrites a corrupted entry when corruption is expected; in a
// run without flip injection the table is left as evidence (the
// violation already recorded it, and the run is failing anyway).
func (w *Watchdog) repair(v BoardView, f uint32, a monitor.Action) {
	if !w.expectCorruption {
		return
	}
	v.RepairAction(f, a)
	w.repairs++
}
