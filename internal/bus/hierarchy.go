package bus

import (
	"fmt"

	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Hierarchy is the machine's interconnect, in the spirit of Cheriton's
// VMP-MC follow-up: boards are grouped onto local bus segments, and the
// segments are joined by a single inter-bus link that carries only
// consistency actions. Main memory is multi-ported with a bank port on
// every segment, so data transfers (page fills, write-backs, DMA) run
// entirely on the requester's local bus at the ordinary VMEbus timing —
// monitors and copiers keep their exact single-bus behaviour.
//
// The paper's shared VMEbus is the one-segment case (New). It has no
// link and no frame directory: its one arbiter already serializes every
// transaction, and with it every frame, so a directory would only add
// work — and its busy-bit poll would let a waiter re-request a frame
// behind later arrivals instead of keeping its place in the arbiter's
// FIFO queue.
//
// What crosses the link is the consistency-check broadcast, and only
// when it must: a per-page-frame inclusion filter (a coarse directory
// of one presence bit per board) records which boards may hold a
// non-Ignore action-table entry for the frame. A consistency
// transaction is forwarded over the link to exactly the remote segments
// whose boards appear in the frame's presence mask. The filter is
// conservative: a false positive (forwarding to a segment with no live
// entry) wastes a probe and nothing else, while a false negative would
// let a remote monitor miss a check it needed to abort or be
// interrupted by — so bits are set pessimistically and cleared only
// from an exact read-back of the requester's own monitor after its
// table update.
//
// Atomicity across segments is the page busy bit: a consistency
// transaction (or action-table write) holds its frame's directory entry
// busy from first check to final table update, and a second transaction
// on a busy frame waits at arbitration granularity before re-requesting
// the frame. Per-frame serialization is exactly the atomicity one bus
// semaphore gives the single-bus machine, so the shadow-oracle watchdog
// observes transactions in commit order with no cross-segment races.
// Transactions on different frames proceed concurrently across
// segments; the deadlock-free lock order is frame busy bit, then link,
// then one segment semaphore at a time.
//
// The counters are plain fields, indexed in the engine's per-run
// stats.Recorder under "bus/..." names, so a run's metrics are collected
// in one sink.
type Hierarchy struct {
	eng      *sim.Engine
	rec      *stats.Recorder
	timing   Timing
	topo     Topology
	pageSize int

	segs []*segment
	// link is the inter-bus link's arbiter; nil on a single bus.
	link *sim.Semaphore

	inj      Injector
	observer func(Transaction, Result)
	sink     *obs.Sink

	// dir is the inclusion filter plus busy bit, per page frame,
	// created on first touch; nil on a single bus. Accessed by key only
	// (never iterated), so no map-order dependence can arise.
	dir map[uint32]*dirEntry
	// boardSnoop finds the requester's own monitor for the table
	// update and the filter read-back.
	boardSnoop map[int]Snooper

	// stats holds what Stats returns except Transactions, which Stats
	// builds from tx; BusyTime is the total segment occupancy.
	stats     Stats
	tx        [numOps]uint64
	xferErrs  uint64
	linkStats LinkStats
	// perBoard accumulates occupancy per requester (DMA under
	// NoRequester is not tracked) under "bus/board<i>/busy-ns",
	// registered on first use.
	perBoard map[int]*sim.Time
}

// segment is one local bus: its own arbiter (semaphore), its own
// monitors, its own occupancy counter.
type segment struct {
	sem      *sim.Semaphore
	snoopers []Snooper
	// busy is the segment's occupancy; it is registered only on a
	// hierarchy, since on a single bus it would repeat bus/busy-ns.
	busy sim.Time
	// tag marks the segment's trace events in their ASID byte: 1+index
	// on a hierarchy, 0 on a single bus, the encoding single-bus event
	// streams have always had.
	tag uint8
	// intrBuf is the scratch list of monitors to post, reused across
	// transactions; it is touched only under the segment semaphore.
	intrBuf []Snooper
}

// dirEntry is one page frame's directory state.
type dirEntry struct {
	// boards is the inclusion filter: bit i set means board i may hold
	// a non-Ignore action-table entry for the frame.
	boards uint64
	// busy marks a consistency transaction in flight on the frame.
	busy bool
}

// ActionReader is the optional snooper surface the filter uses for
// exact presence updates: after a transaction's table update it reads
// the requester's entry back instead of guessing from the op, so a
// board's bit clears the moment its entry returns to Ignore whatever
// the protocol's transition table decided. bus monitors implement it.
type ActionReader interface {
	Action(paddr uint32) protocol.Action
}

// New creates the paper's single shared VMEbus on the engine with
// default timing: the one-segment interconnect.
func New(eng *sim.Engine) *Hierarchy { return NewHierarchy(eng, Topology{}, 0) }

// NewHierarchy creates the interconnect for a topology on the engine
// with default timing. pageSize is the machine's cache-page frame size
// (the directory's granularity; a single bus has no directory). The
// topology must already be validated.
func NewHierarchy(eng *sim.Engine, topo Topology, pageSize int) *Hierarchy {
	rec := eng.Recorder()
	h := &Hierarchy{
		eng:        eng,
		rec:        rec,
		timing:     DefaultTiming(),
		topo:       topo,
		pageSize:   pageSize,
		boardSnoop: make(map[int]Snooper),
		perBoard:   make(map[int]*sim.Time),
	}
	stats.Register(rec, "bus/aborts", &h.stats.Aborts)
	stats.Register(rec, "bus/transfer-errors", &h.xferErrs)
	stats.Register(rec, "bus/busy-ns", &h.stats.BusyTime)
	stats.Register(rec, "bus/bytes-moved", &h.stats.BytesMoved)
	stats.Register(rec, "bus/link/busy-ns", &h.linkStats.BusyTime)
	stats.Register(rec, "bus/link/crossings", &h.linkStats.Crossings)
	stats.Register(rec, "bus/link/aborts", &h.linkStats.Aborts)
	stats.Register(rec, "bus/link/filtered-local", &h.linkStats.FilteredLocal)
	stats.Register(rec, "bus/frame-waits", &h.linkStats.FrameWaits)
	for op := range h.tx {
		stats.Register(rec, "bus/tx/"+Op(op).String(), &h.tx[op])
	}
	if topo.SingleBus() {
		h.segs = []*segment{{sem: sim.NewSemaphore(1)}}
		return h
	}
	h.link = sim.NewSemaphore(1)
	h.dir = make(map[uint32]*dirEntry)
	for i := 0; i < topo.Buses; i++ {
		seg := &segment{sem: sim.NewSemaphore(1), tag: uint8(1 + i)}
		stats.Register(rec, fmt.Sprintf("bus/seg%d/busy-ns", i), &seg.busy)
		h.segs = append(h.segs, seg)
	}
	return h
}

// SetInjector attaches a fault injector consulted on every transaction
// (nil detaches). The same injector serves both the per-segment
// transaction faults and the link-level transient aborts, so one seeded
// fault plan covers the whole interconnect.
func (h *Hierarchy) SetInjector(inj Injector) { h.inj = inj }

// SetSink attaches the observability sink; every transaction then emits
// its trace events. A hierarchy built outside a machine has none, and
// its events are discarded (Emit accepts a nil sink).
func (h *Hierarchy) SetSink(s *obs.Sink) { h.sink = s }

// SetObserver registers fn to run once per logical transaction with the
// merged (local + remote) result, after its effects are applied, while
// the home segment is still held and the frame is still busy — so the
// watchdog's shadow sees one serialized stream in commit order. The
// fault layer uses it for post-transaction table corruption; observing
// must not issue bus transactions.
func (h *Hierarchy) SetObserver(fn func(Transaction, Result)) { h.observer = fn }

// SetTiming overrides the timing constants (before simulation starts).
func (h *Hierarchy) SetTiming(t Timing) { h.timing = t }

// Timing implements Interconnect.
func (h *Hierarchy) Timing() Timing { return h.timing }

// Attach implements Interconnect, placing the monitor on its board's
// segment.
func (h *Hierarchy) Attach(s Snooper) {
	seg := h.segs[h.topo.SegmentOf(s.BoardID())]
	seg.snoopers = append(seg.snoopers, s)
	h.boardSnoop[s.BoardID()] = s
}

// Stats implements Interconnect. BusyTime aggregates the occupancy of
// every segment (link time is reported separately via LinkStats).
func (h *Hierarchy) Stats() Stats {
	st := h.stats
	st.Transactions = make(map[Op]uint64)
	for op, n := range h.tx {
		if n > 0 {
			st.Transactions[Op(op)] = n
		}
	}
	return st
}

// LinkStats reports the inter-bus link counters; all zero on a single
// bus.
type LinkStats struct {
	// Crossings is the number of consistency transactions that paid a
	// link broadcast; FilteredLocal the number the inclusion filter
	// kept on their home segment.
	Crossings     uint64
	FilteredLocal uint64
	// Aborts counts link-level injected transient aborts.
	Aborts uint64
	// BusyTime is the link occupancy.
	BusyTime sim.Time
	// FrameWaits counts arbitration waits on a busy frame (the
	// cross-segment serialization cost).
	FrameWaits uint64
}

// LinkStats returns the link-side counters.
func (h *Hierarchy) LinkStats() LinkStats { return h.linkStats }

// Utilization implements Interconnect: the mean per-segment
// utilization, comparable to the queuing model's per-bus prediction.
func (h *Hierarchy) Utilization() float64 {
	if h.eng.Now() == 0 {
		return 0
	}
	return float64(h.stats.BusyTime) / (float64(h.eng.Now()) * float64(len(h.segs)))
}

// BoardBusyTime returns all interconnect occupancy (home segment,
// remote probes, link packets) charged to a board.
func (h *Hierarchy) BoardBusyTime(id int) sim.Time {
	if t, ok := h.perBoard[id]; ok {
		return *t
	}
	return 0
}

// boardBusy returns (creating and registering on first use) the
// occupancy counter for a board.
func (h *Hierarchy) boardBusy(id int) *sim.Time {
	t, ok := h.perBoard[id]
	if !ok {
		t = new(sim.Time)
		stats.Register(h.rec, fmt.Sprintf("bus/board%d/busy-ns", id), t)
		h.perBoard[id] = t
	}
	return t
}

// entry returns (creating on first touch) a frame's directory entry.
func (h *Hierarchy) entry(frame uint32) *dirEntry {
	e, ok := h.dir[frame]
	if !ok {
		e = &dirEntry{}
		h.dir[frame] = e
	}
	return e
}

func (h *Hierarchy) frameOf(paddr uint32) uint32 { return paddr / uint32(h.pageSize) }

// Presence returns the inclusion filter's board mask for the frame
// containing paddr (tests and tools; a zero mask means no board may
// hold the page, and a single bus keeps no record).
func (h *Hierarchy) Presence(paddr uint32) uint64 {
	if h.dir == nil {
		return 0
	}
	if e, ok := h.dir[h.frameOf(paddr)]; ok {
		return e.boards
	}
	return 0
}

// segMask returns the mask of boards on segment s, for intersecting
// with a frame's presence mask.
func (h *Hierarchy) segMask(s int) uint64 {
	lo := s * h.topo.BoardsPerBus
	hi := lo + h.topo.BoardsPerBus
	if hi > MaxBoards {
		hi = MaxBoards
	}
	if lo >= hi {
		return 0
	}
	m := ^uint64(0) << uint(lo)
	if hi < MaxBoards {
		m &^= ^uint64(0) << uint(hi)
	}
	return m
}

// charge books occupancy time against a segment and the requester.
//
//vmplint:hotpath
func (h *Hierarchy) charge(seg *segment, requester int, d sim.Time) {
	seg.busy += d
	h.stats.BusyTime += d
	if requester != NoRequester {
		*h.boardBusy(requester) += d
	}
}

// emit sends one trace event; tag is the segment mark carried in the
// event's ASID byte (see segment.tag; link events carry 0).
//
//vmplint:hotpath
func (h *Hierarchy) emit(kind obs.Kind, tx Transaction, dur sim.Time, tag uint8, fl uint8) {
	h.sink.Emit(obs.Event{
		Time: h.eng.Now(), Dur: dur, PAddr: tx.PAddr,
		Board: int16(tx.Requester), ASID: tag,
		Kind: kind, Arg: uint8(tx.Op), Flags: fl,
	})
}

// Do implements Interconnect. Plain (DMA/device) transfers, and every
// transaction on a single bus, run entirely on the home segment. On a
// hierarchy, consistency transactions and action-table writes first
// acquire their frame's busy bit; the consistency-check broadcast then
// crosses the link to every remote segment the inclusion filter
// implicates, and the transaction itself (transfer timing, table
// update, fault injection, observer) runs on the home segment with the
// merged remote reactions folded in.
//
//vmplint:hotpath
func (h *Hierarchy) Do(p *sim.Process, tx Transaction) Result {
	home := h.topo.SegmentOf(tx.Requester)
	if h.dir == nil || (!tx.Op.ConsistencyRelated() && tx.Op != WriteActionTable) {
		return h.commit(p, tx, home, Result{})
	}

	frame := h.frameOf(tx.PAddr)
	e := h.entry(frame)
	for e.busy {
		// Another segment's transaction holds the frame: wait one
		// arbitration slot and re-request. The holder never waits on a
		// second frame, so this always drains.
		h.linkStats.FrameWaits++
		p.Delay(h.timing.ArbAddr)
	}
	e.busy = true

	var res Result
	if tx.Op.ConsistencyRelated() {
		remote := e.boards &^ h.segMask(home)
		if remote != 0 {
			res = h.crossLink(p, tx, remote)
		} else {
			h.linkStats.FilteredLocal++
		}
	}
	res = h.commit(p, tx, home, res)
	if !res.Aborted && !res.TransferErr {
		h.updateFilter(tx, e)
	}
	e.busy = false
	return res
}

// crossLink broadcasts the consistency check over the inter-bus link
// to every remote segment holding boards in mask, merging their
// reactions. The link is held for the whole broadcast; each remote
// segment is acquired, probed for one check/update window, and
// released before the next, so a segment semaphore is never held while
// waiting on anything but its own queue.
//
//vmplint:hotpath
func (h *Hierarchy) crossLink(p *sim.Process, tx Transaction, mask uint64) Result {
	var res Result
	h.link.Acquire(p)
	pkt := h.timing.ArbAddr + h.timing.FirstWord
	h.linkStats.BusyTime += pkt
	h.linkStats.Crossings++
	if tx.Requester != NoRequester {
		*h.boardBusy(tx.Requester) += pkt
	}
	// Link-level fault injection reuses the transient-abort class: the
	// broadcast is lost in link arbitration and the requester retries,
	// exactly as for an on-bus spurious abort.
	if h.inj != nil && tx.Requester != NoRequester && h.inj.AbortTransient(tx.Op) {
		res.Aborted = true
		res.SpuriousAbort = true
		h.linkStats.Aborts++
		h.emit(obs.KindLink, tx, pkt, 0, obs.FlagConsistency|obs.FlagAborted|obs.FlagSpurious)
		p.Delay(pkt)
		h.link.Release()
		return res
	}
	h.emit(obs.KindLink, tx, pkt, 0, obs.FlagConsistency)
	p.Delay(pkt)
	probe := h.timing.ArbAddr + h.timing.CheckWindow + h.timing.UpdateWindow
	for s := 0; s < len(h.segs); s++ {
		if mask&h.segMask(s) == 0 {
			continue
		}
		seg := h.segs[s]
		seg.sem.Acquire(p)
		res = seg.check(tx, res)
		h.charge(seg, tx.Requester, probe)
		h.emit(obs.KindBus, tx, probe, seg.tag, obs.FlagConsistency)
		p.Delay(probe)
		seg.sem.Release()
	}
	h.link.Release()
	return res
}

// check runs the consistency-check window on the segment, whose
// semaphore the caller holds: every monitor decides from its table
// state at the start of the window (the hardware monitors decide in
// parallel), the reactions merge into res, and only then are the
// interrupt words posted.
//
//vmplint:hotpath
func (seg *segment) check(tx Transaction, res Result) Result {
	seg.intrBuf = seg.intrBuf[:0]
	for _, sn := range seg.snoopers {
		r := sn.Check(tx)
		if r.Abort {
			res.Aborted = true
		}
		if r.Seen {
			res.SharedSeen = true
		}
		if r.Interrupt {
			seg.intrBuf = append(seg.intrBuf, sn) //vmplint:allow hotalloc reused per-segment scratch reaches snooper-count capacity once; the bus/transaction, interconnect/local-hit and interconnect/cross-link micros pin 0 allocs/op
		}
	}
	for _, sn := range seg.intrBuf {
		sn.Post(tx)
	}
	return res
}

// commit runs the transaction on its home segment: the local check
// window, fault injection, transfer timing, the requester's own table
// update, counters, tracing and the observer, with any remote
// reactions already gathered folded into the abort decision.
//
//vmplint:hotpath
func (h *Hierarchy) commit(p *sim.Process, tx Transaction, home int, res Result) Result {
	seg := h.segs[home]
	seg.sem.Acquire(p)
	defer seg.sem.Release()

	if tx.Op.ConsistencyRelated() {
		res = seg.check(tx, res)
	}

	// Fault layer: an otherwise-successful transaction may be spuriously
	// aborted (the requester sees an ordinary conflict and retries) or,
	// for block transfers, fail mid-stream with a transfer error. DMA
	// transactions are exempt: they have no retry path.
	if h.inj != nil && !res.Aborted && tx.Requester != NoRequester {
		if tx.Op.ConsistencyRelated() && h.inj.AbortTransient(tx.Op) {
			res.Aborted = true
			res.SpuriousAbort = true
		} else if tx.Op.Transfers() && tx.Bytes > 0 && h.inj.TransferError(tx.Op) {
			res.TransferErr = true
		}
	}

	var busy sim.Time
	switch {
	case res.Aborted:
		busy = h.timing.AbortTime()
		h.stats.Aborts++
	case res.TransferErr:
		// A failed transfer terminates like an abort — at the end of the
		// memory reference in flight — with no table update and no data
		// moved.
		busy = h.timing.AbortTime()
		h.xferErrs++
	default:
		busy = h.timing.TransferTime(tx.Op, tx.Bytes)
		h.stats.BytesMoved += uint64(tx.Bytes)
		if tx.Requester != NoRequester && (tx.Op.ConsistencyRelated() || tx.Op == WriteActionTable) {
			if sn, ok := h.boardSnoop[tx.Requester]; ok {
				sn.UpdateFromOwn(tx, res)
			}
		}
	}
	h.tx[tx.Op]++
	h.charge(seg, tx.Requester, busy)
	var fl uint8
	if tx.Op.ConsistencyRelated() {
		fl |= obs.FlagConsistency
	}
	if res.Aborted {
		fl |= obs.FlagAborted
	}
	if res.SpuriousAbort {
		fl |= obs.FlagSpurious
	}
	if res.TransferErr {
		fl |= obs.FlagTransferErr
	}
	h.emit(obs.KindBus, tx, busy, seg.tag, fl)
	if h.observer != nil {
		h.observer(tx, res)
	}
	p.Delay(busy)
	return res
}

// updateFilter maintains the inclusion filter after a successful
// transaction, while the frame is still held busy. The requester's bit
// follows an exact read-back of its monitor's just-updated entry when
// the monitor exposes one (false negatives are thereby impossible:
// every table transition a board makes rides a bus transaction on this
// frame, and the read-back happens before the frame is released).
// Without a read-back the bit is set pessimistically and never
// cleared — a pure false-positive policy.
func (h *Hierarchy) updateFilter(tx Transaction, e *dirEntry) {
	if tx.Requester == NoRequester || tx.Requester >= MaxBoards {
		return
	}
	bit := uint64(1) << uint(tx.Requester)
	if sn, ok := h.boardSnoop[tx.Requester]; ok {
		if ar, ok := sn.(ActionReader); ok {
			if ar.Action(tx.PAddr) != protocol.Ignore {
				e.boards |= bit
			} else {
				e.boards &^= bit
			}
			return
		}
	}
	switch tx.Op {
	case ReadShared, ReadPrivate, AssertOwnership, ReadExclusive:
		e.boards |= bit
	case WriteBack:
		if tx.Downgrade {
			e.boards |= bit
		}
	case WriteActionTable:
		if protocol.Action(tx.Action) != protocol.Ignore {
			e.boards |= bit
		}
	}
}
