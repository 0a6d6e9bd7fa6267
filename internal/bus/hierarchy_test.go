package bus

import (
	"testing"

	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/sim"
)

// readerSnooper is a fakeSnooper that also exposes an action-table
// entry for the filter's exact read-back (the shape bus monitors have).
type readerSnooper struct {
	fakeSnooper
	actions map[uint32]protocol.Action
}

func (r *readerSnooper) Action(paddr uint32) protocol.Action {
	return r.actions[paddr]
}

const testPageSize = 256

func newTestHierarchy(topo Topology) (*sim.Engine, *Hierarchy) {
	eng := sim.NewEngine()
	return eng, NewHierarchy(eng, topo, testPageSize)
}

// do runs one transaction to completion on a fresh process.
func do(eng *sim.Engine, h *Hierarchy, tx Transaction) Result {
	var res Result
	eng.Spawn("cpu", func(p *sim.Process) { res = h.Do(p, tx) })
	eng.Run()
	return res
}

// TestFilterFalseNegativeForbidden is the filter's safety side: once a
// board acquires a page, every later consistency transaction from
// another segment MUST be checked by that board's segment — a missed
// check could hide an abort or a required invalidation interrupt.
func TestFilterFalseNegativeForbidden(t *testing.T) {
	eng, h := newTestHierarchy(Topology{Buses: 2, BoardsPerBus: 2})
	local := &readerSnooper{fakeSnooper: fakeSnooper{id: 0}, actions: map[uint32]protocol.Action{}}
	remote := &readerSnooper{fakeSnooper: fakeSnooper{id: 2}, actions: map[uint32]protocol.Action{}}
	h.Attach(local)
	h.Attach(remote)

	const page = uint32(0x4000)

	// Board 2 (segment 1) acquires the page privately.
	remote.actions[page] = protocol.Private
	if res := do(eng, h, Transaction{Op: ReadPrivate, PAddr: page, Bytes: testPageSize, Requester: 2}); res.Aborted {
		t.Fatal("acquisition aborted")
	}
	if h.Presence(page)&(1<<2) == 0 {
		t.Fatalf("presence mask %#x missing board 2 after its fill", h.Presence(page))
	}

	// Board 0 (segment 0) now touches the page: the consistency check
	// must cross the link and reach board 2's segment.
	remote.abort = true
	res := do(eng, h, Transaction{Op: ReadShared, PAddr: page, Bytes: testPageSize, Requester: 0})
	if len(remote.checked) != 2 {
		t.Fatalf("remote monitor saw %d checks, want 2 (own fill + forwarded check)", len(remote.checked))
	}
	if !res.Aborted {
		t.Error("remote owner's abort reaction was lost crossing the link")
	}
	if ls := h.LinkStats(); ls.Crossings != 1 {
		t.Errorf("link crossings = %d, want 1", ls.Crossings)
	}

	// The abort must not have updated the filter or the requester's
	// table (UpdateFromOwn only on success).
	if len(local.updated) != 0 {
		t.Errorf("aborted transaction updated the requester's table %d times", len(local.updated))
	}
}

// TestFilterExactReadBack pins the clearing side: when the requester's
// monitor exposes its table entry, a transition back to Ignore (a
// write-back release) clears the board's presence bit, and later
// remote transactions stay local.
func TestFilterExactReadBack(t *testing.T) {
	eng, h := newTestHierarchy(Topology{Buses: 2, BoardsPerBus: 2})
	a := &readerSnooper{fakeSnooper: fakeSnooper{id: 0}, actions: map[uint32]protocol.Action{}}
	b := &readerSnooper{fakeSnooper: fakeSnooper{id: 2}, actions: map[uint32]protocol.Action{}}
	h.Attach(a)
	h.Attach(b)

	const page = uint32(0x8000)
	b.actions[page] = protocol.Private
	do(eng, h, Transaction{Op: ReadPrivate, PAddr: page, Bytes: testPageSize, Requester: 2})

	// Board 2 writes the page back and drops to Ignore: the read-back
	// clears its presence bit.
	b.actions[page] = protocol.Ignore
	do(eng, h, Transaction{Op: WriteBack, PAddr: page, Bytes: testPageSize, Requester: 2})
	if h.Presence(page) != 0 {
		t.Fatalf("presence mask %#x after release, want 0", h.Presence(page))
	}

	// A later consistency transaction from segment 0 is now filtered
	// local: board 2's segment sees no check and the link stays idle.
	before := len(b.checked)
	crossings := h.LinkStats().Crossings
	do(eng, h, Transaction{Op: ReadShared, PAddr: page, Bytes: testPageSize, Requester: 0})
	if len(b.checked) != before {
		t.Error("released page still forwarded to the remote segment")
	}
	if ls := h.LinkStats(); ls.Crossings != crossings {
		t.Errorf("link crossings = %d, want %d", ls.Crossings, crossings)
	}
	if h.LinkStats().FilteredLocal == 0 {
		t.Error("filtered-local counter did not move")
	}
}

// TestFilterFalsePositiveAllowed is the liveness side the design
// permits: a snooper without a readable table (no ActionReader) keeps
// its presence bit pessimistically, so later transactions pay a wasted
// remote probe — forwarded, checked, and still correct.
func TestFilterFalsePositiveAllowed(t *testing.T) {
	eng, h := newTestHierarchy(Topology{Buses: 2, BoardsPerBus: 2})
	a := &fakeSnooper{id: 0}
	b := &fakeSnooper{id: 2} // no ActionReader: conservative filter only
	h.Attach(a)
	h.Attach(b)

	const page = uint32(0xc000)
	do(eng, h, Transaction{Op: ReadShared, PAddr: page, Bytes: testPageSize, Requester: 2})
	// Board 2's entry is logically gone (its write-back completed), but
	// without a read-back the bit stays set.
	do(eng, h, Transaction{Op: WriteBack, PAddr: page, Bytes: testPageSize, Requester: 2})
	if h.Presence(page)&(1<<2) == 0 {
		t.Fatal("conservative filter cleared a bit it cannot verify")
	}

	// The stale bit costs a forwarded probe; the transaction still
	// completes normally (nobody aborts).
	before := len(b.checked)
	res := do(eng, h, Transaction{Op: ReadShared, PAddr: page, Bytes: testPageSize, Requester: 0})
	if res.Aborted {
		t.Error("false-positive probe aborted the transaction")
	}
	if len(b.checked) != before+1 {
		t.Errorf("stale presence bit was not forwarded: %d checks, want %d", len(b.checked), before+1)
	}
}

// TestHierarchyLocalPlainOps pins that plain (non-consistency) traffic
// never consults the directory, never crosses the link, and only
// occupies its home segment.
func TestHierarchyLocalPlainOps(t *testing.T) {
	eng, h := newTestHierarchy(Topology{Buses: 2, BoardsPerBus: 1})
	sink := obs.NewSink(obs.Config{Stream: true}, eng.Now)
	h.SetSink(sink)
	a := &fakeSnooper{id: 0}
	b := &fakeSnooper{id: 1}
	h.Attach(a)
	h.Attach(b)

	do(eng, h, Transaction{Op: PlainWrite, PAddr: 0x2000, Bytes: 4, Requester: 1})
	if len(a.checked) != 0 || len(b.checked) != 0 {
		t.Error("plain op checked a monitor")
	}
	if ls := h.LinkStats(); ls.Crossings != 0 {
		t.Errorf("plain op crossed the link %d times", ls.Crossings)
	}
	if h.Presence(0x2000) != 0 {
		t.Error("plain op touched the inclusion filter")
	}
	if eng.Recorder().Value("bus/seg0/busy-ns") != 0 {
		t.Error("plain op on segment 1 occupied segment 0")
	}
	if eng.Recorder().Value("bus/seg1/busy-ns") == 0 {
		t.Error("plain op left its home segment idle")
	}
	// Segment s tags its events s+1 in the ASID byte, so the trace
	// viewer draws one track per segment.
	if evs := sink.Stream(); len(evs) != 1 || evs[0].ASID != 2 {
		t.Errorf("events %+v, want one event tagged 2 (segment 1)", evs)
	}
}

// TestHierarchySingleSegmentMatchesBus pins the one-bus case against a
// two-segment hierarchy whose requesters all sit on segment 0: both
// charge the same occupancy for the same transaction sequence.
func TestHierarchySingleSegmentMatchesBus(t *testing.T) {
	run := func(ic Interconnect, eng *sim.Engine) (Stats, sim.Time) {
		for i := 0; i < 2; i++ {
			i := i
			eng.Spawn("cpu", func(p *sim.Process) {
				ic.Do(p, Transaction{Op: ReadShared, PAddr: 0x1000, Bytes: 256, Requester: i})
				ic.Do(p, Transaction{Op: AssertOwnership, PAddr: 0x1000, Requester: i})
			})
		}
		end := eng.Run()
		return ic.Stats(), end
	}
	engB := sim.NewEngine()
	sb, endB := run(New(engB), engB)
	engH := sim.NewEngine()
	sh, endH := run(NewHierarchy(engH, Topology{Buses: 2, BoardsPerBus: 2}, testPageSize), engH)
	if endB != endH {
		t.Errorf("elapsed differs: bus %v vs hierarchy %v", endB, endH)
	}
	if sb.BusyTime != sh.BusyTime || sb.BytesMoved != sh.BytesMoved {
		t.Errorf("occupancy differs: bus %+v vs hierarchy %+v", sb, sh)
	}
	for op, n := range sb.Transactions {
		if sh.Transactions[op] != n {
			t.Errorf("op %v count %d vs %d", op, sh.Transactions[op], n)
		}
	}
}

// TestTopologySegmentOf pins the board→segment map and validation.
func TestTopologySegmentOf(t *testing.T) {
	topo := Topology{Buses: 4, BoardsPerBus: 2}
	for board, want := range map[int]int{0: 0, 1: 0, 2: 1, 5: 2, 7: 3} {
		if got := topo.SegmentOf(board); got != want {
			t.Errorf("SegmentOf(%d) = %d, want %d", board, got, want)
		}
	}
	if got := topo.SegmentOf(NoRequester); got != 0 {
		t.Errorf("SegmentOf(DMA) = %d, want 0", got)
	}
	if err := topo.Validate(8); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	if err := topo.Validate(9); err == nil {
		t.Error("overfull shape accepted")
	}
	if err := (Topology{Buses: 2, BoardsPerBus: 40}).Validate(65); err == nil {
		t.Error("shape past the filter's 64-board limit accepted")
	}
	if err := (Topology{}).Validate(200); err != nil {
		t.Errorf("single-bus board count rejected: %v", err)
	}
}
