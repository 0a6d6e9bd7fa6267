// Package bus models the machine's interconnect: the shared VMEbus of
// the paper — single-master arbitration, block-transfer timing, the
// overlapped consistency-check and action-table-update windows of
// Figure 2, and abort semantics — and its VMP-MC generalization to
// local bus segments joined by an inter-bus link. Hierarchy implements
// both; the single VMEbus is its one-segment case.
//
// The bus carries the six consistency-related transaction types of the
// VMP protocol plus plain (DMA/device) word and block transfers that bus
// monitors ignore. Every attached bus monitor checks each
// consistency-related transaction against its action table during the
// check window; any monitor may abort the transaction, which terminates
// it at the end of the current memory reference and leaves main memory
// unmodified (write-back, the only transaction that writes main memory,
// is never aborted in a correct execution).
package bus

import (
	"vmp/internal/busop"
	"vmp/internal/protocol"
	"vmp/internal/sim"
)

// Op is a bus transaction type. It is an alias for busop.Op, the shared
// leaf vocabulary also used by the observability layer to name trace
// events, so the op-name table exists exactly once.
type Op = busop.Op

// Transaction types, re-exported from busop. The first six are the
// consistency-related operations of Section 3.1; Plain transfers are
// issued by DMA devices and by CPUs touching device registers, and are
// invisible to the consistency machinery.
const (
	ReadShared       = busop.ReadShared       // acquire a shared copy of a cache page
	ReadPrivate      = busop.ReadPrivate      // acquire an exclusive copy of a cache page
	AssertOwnership  = busop.AssertOwnership  // gain ownership without reading the page
	WriteBack        = busop.WriteBack        // write a private page back, releasing it
	Notify           = busop.Notify           // notification to interested processors
	WriteActionTable = busop.WriteActionTable // explicit action-table update
	PlainRead        = busop.PlainRead        // DMA/device read (word or block)
	PlainWrite       = busop.PlainWrite       // DMA/device write (word or block)
	ReadExclusive    = busop.ReadExclusive    // exclusive-clean read (vmp3 protocol)
)

// Ops returns every transaction type in declaration order.
func Ops() []Op { return busop.All() }

// NoRequester marks transactions issued by DMA devices rather than a
// processor board.
const NoRequester = -1

// Transaction is one bus operation.
type Transaction struct {
	Op        Op
	PAddr     uint32 // physical address (page-aligned for page operations)
	Bytes     int    // transfer length; 0 for non-transfer operations
	Requester int    // issuing board ID, or NoRequester for DMA
	// Action carries the 2-bit action-table value for WriteActionTable
	// transactions.
	Action uint8
	// Downgrade marks a WriteBack that retains a shared copy: the
	// requester's action-table entry moves to Shared (01) instead of
	// Ignore (00), the hardware realization of Section 3.3's "downgrades
	// the cache page to read-only and changes the action table entry to
	// 01".
	Downgrade bool
}

// Result reports the outcome of a transaction.
type Result struct {
	Aborted bool
	// SpuriousAbort marks an abort injected by the fault layer rather
	// than signalled by a monitor. The requester retries exactly as for a
	// genuine conflict; the flag exists so the invariant watchdog can
	// tell an injected abort from an abort with no protocol cause.
	SpuriousAbort bool
	// TransferErr marks a block transfer that failed mid-stream (injected
	// transfer error). Like an abort it has no protocol side effects —
	// no action-table update, no bytes counted — but it is reported
	// separately so the copier re-issues the transfer instead of the
	// board re-running the whole miss.
	TransferErr bool
	// SharedSeen reports that some monitor asserted the shared line
	// during the check window (protocol.Reaction.Seen): the page is on
	// record elsewhere, so an exclusive-clean grant (ReadExclusive)
	// must be downgraded to a shared copy. Always false for protocols
	// without a shared line.
	SharedSeen bool
}

// Snooper is the bus-side interface of a bus monitor.
type Snooper interface {
	// BoardID identifies the processor this monitor serves.
	BoardID() int
	// Check inspects a transaction during the consistency-check window
	// and returns the protocol reaction: whether to abort it, whether
	// to interrupt the local processor, and whether to assert the
	// shared line. It must not mutate monitor state.
	Check(tx Transaction) protocol.Reaction
	// Post enqueues an interrupt word for the local processor.
	Post(tx Transaction)
	// UpdateFromOwn applies the action-table side effect of a
	// successful transaction issued by this monitor's own processor,
	// given the transaction's bus result (the shared-line state feeds
	// the granted-state decision).
	UpdateFromOwn(tx Transaction, res Result)
}

// Injector is the fault-injection hook consulted by Do. Both methods
// are called at most once per transaction, under the bus semaphore, so
// a deterministic injector yields a deterministic fault sequence.
type Injector interface {
	// AbortTransient is consulted for consistency-related transactions
	// that no monitor aborted; returning true spuriously aborts the
	// transaction. Implementations must never abort WriteBack.
	AbortTransient(op Op) bool
	// TransferError is consulted for surviving block transfers; returning
	// true fails the transfer with no side effects, forcing a re-issue.
	TransferError(op Op) bool
}

// Timing holds the bus timing constants (Figure 2 and Section 2).
type Timing struct {
	// The json tags pin the wire names scenario canonical JSON has
	// always used (the Go field names), so a rename cannot silently
	// change scenario fingerprints; see vmplint's canonjson rule.
	ArbAddr      sim.Time `json:"ArbAddr"`      // arbitration + address cycle
	FirstWord    sim.Time `json:"FirstWord"`    // first longword of a block transfer
	NextWord     sim.Time `json:"NextWord"`     // subsequent longwords
	CheckWindow  sim.Time `json:"CheckWindow"`  // consistency check interval (overlapped)
	UpdateWindow sim.Time `json:"UpdateWindow"` // action table update interval (overlapped)
}

// DefaultTiming matches the prototype: 40 MB/s block transfer on the
// VMEbus with 150 ns check and update windows.
func DefaultTiming() Timing {
	return Timing{
		ArbAddr:      100 * sim.Nanosecond,
		FirstWord:    300 * sim.Nanosecond,
		NextWord:     100 * sim.Nanosecond,
		CheckWindow:  150 * sim.Nanosecond,
		UpdateWindow: 150 * sim.Nanosecond,
	}
}

// TransferTime returns the bus occupancy of a successful transaction.
// The check and update windows are overlapped with the transfer, so a
// block transaction costs arbitration plus the streaming time; a
// non-transfer transaction costs arbitration plus the two windows.
func (t Timing) TransferTime(op Op, bytes int) sim.Time {
	if op.Transfers() && bytes > 0 {
		words := bytes / 4
		if words < 1 {
			words = 1
		}
		return t.ArbAddr + t.FirstWord + sim.Time(words-1)*t.NextWord
	}
	return t.ArbAddr + t.CheckWindow + t.UpdateWindow
}

// AbortTime returns the bus occupancy of an aborted transaction: it is
// terminated at the end of the memory reference in flight when the
// check window completes.
func (t Timing) AbortTime() sim.Time {
	return t.ArbAddr + t.FirstWord
}

// Stats counts bus activity.
type Stats struct {
	Transactions map[Op]uint64
	Aborts       uint64
	BusyTime     sim.Time
	BytesMoved   uint64
}

// numOps is the number of distinct transaction types.
const numOps = int(busop.NumOps)
