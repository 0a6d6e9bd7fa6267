package check

import (
	"strings"
	"testing"

	"vmp/internal/bus"
	"vmp/internal/monitor"
	"vmp/internal/stats"
)

const pageSize = 256

// fakeView is a scriptable BoardView backed by plain maps.
type fakeView struct {
	id        int
	holds     map[uint32]Hold
	protected map[uint32]bool
	actions   map[uint32]monitor.Action
	repairs   map[uint32]monitor.Action
}

func newView(id int) *fakeView {
	return &fakeView{
		id:        id,
		holds:     map[uint32]Hold{},
		protected: map[uint32]bool{},
		actions:   map[uint32]monitor.Action{},
		repairs:   map[uint32]monitor.Action{},
	}
}

func (v *fakeView) ID() int                        { return v.id }
func (v *fakeView) Hold(f uint32) Hold             { return v.holds[f] }
func (v *fakeView) Protected(f uint32) bool        { return v.protected[f] }
func (v *fakeView) Action(f uint32) monitor.Action { return v.actions[f] }
func (v *fakeView) RepairAction(f uint32, a monitor.Action) {
	v.repairs[f] = a
	v.actions[f] = a
}
func (v *fakeView) ForEachEntry(fn func(uint32, monitor.Action)) {
	for f := uint32(0); f < 64; f++ {
		if a, ok := v.actions[f]; ok && a != monitor.Ignore {
			fn(f, a)
		}
	}
}
func (v *fakeView) ForEachHeld(fn func(uint32, Hold)) {
	for f := uint32(0); f < 64; f++ {
		if h, ok := v.holds[f]; ok && h != HoldNone {
			fn(f, h)
		}
	}
}

func newWatch() (*Watchdog, *stats.Recorder) {
	rec := stats.NewRecorder()
	return New(rec, pageSize), rec
}

func tx(op bus.Op, frame uint32, req int) bus.Transaction {
	return bus.Transaction{Op: op, PAddr: frame * pageSize, Bytes: pageSize, Requester: req}
}

func mustClean(t *testing.T, w *Watchdog) {
	t.Helper()
	if v := w.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

// TestShadowTracksOwnershipFlow walks a legal ownership history through
// the shadow: no step may violate.
func TestShadowTracksOwnershipFlow(t *testing.T) {
	w, _ := newWatch()
	w.OnTransaction(tx(bus.ReadShared, 5, 0), bus.Result{})
	// Board 0 drops its copy via an explicit table write before board 1
	// takes the frame private.
	drop := tx(bus.WriteActionTable, 5, 0)
	drop.Action = uint8(monitor.Ignore)
	w.OnTransaction(drop, bus.Result{})
	w.OnTransaction(tx(bus.ReadPrivate, 5, 1), bus.Result{})
	// The owner writes back with downgrade, keeping a shared copy.
	down := tx(bus.WriteBack, 5, 1)
	down.Downgrade = true
	w.OnTransaction(down, bus.Result{})
	// Board 1 re-asserts ownership over its own shared copy.
	w.OnTransaction(tx(bus.AssertOwnership, 5, 1), bus.Result{})
	w.OnTransaction(tx(bus.WriteBack, 5, 1), bus.Result{})
	mustClean(t, w)
}

func TestSingleOwnerViolations(t *testing.T) {
	w, rec := newWatch()
	w.OnTransaction(tx(bus.ReadPrivate, 3, 0), bus.Result{})

	// A second ownership grant while board 0 owns the frame.
	w.OnTransaction(tx(bus.ReadPrivate, 3, 1), bus.Result{})
	// A shared grant while an owner exists.
	w.OnTransaction(tx(bus.ReadShared, 3, 2), bus.Result{})
	// A write-back by a board that does not own the frame.
	w.OnTransaction(tx(bus.WriteBack, 3, 2), bus.Result{})

	v := w.Violations()
	if len(v) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(v), v)
	}
	for i, want := range []string{"owns it", "owns it", "does not own it"} {
		if !strings.Contains(v[i], want) {
			t.Errorf("violation %d = %q, want mention of %q", i, v[i], want)
		}
	}
	if got := rec.Value("check/unowned-write-backs"); got != 1 {
		t.Errorf("check/unowned-write-backs = %d, want 1", got)
	}
}

// TestSpuriousAbortExempt: an injected abort is not evidence of
// anything — no phantom classification, no shadow movement.
func TestSpuriousAbortExempt(t *testing.T) {
	w, rec := newWatch()
	w.OnTransaction(tx(bus.ReadPrivate, 7, 0), bus.Result{Aborted: true, SpuriousAbort: true})
	if got := rec.Value("check/phantom-aborts"); got != 0 {
		t.Errorf("phantom-aborts = %d after a spurious abort", got)
	}
	// The abort acquired nothing: board 1 may now take the frame.
	w.OnTransaction(tx(bus.ReadPrivate, 7, 1), bus.Result{})
	mustClean(t, w)
}

// TestPhantomAbortDetected: a genuine abort with no shadow cause can
// only come from a corrupted table entry.
func TestPhantomAbortDetected(t *testing.T) {
	w, rec := newWatch()
	w.SetExpectCorruption(true)
	w.OnTransaction(tx(bus.ReadShared, 9, 0), bus.Result{Aborted: true})
	if got := rec.Value("check/phantom-aborts"); got != 1 {
		t.Fatalf("phantom-aborts = %d, want 1", got)
	}
	if got := rec.Value("check/table-corruptions-detected"); got != 1 {
		t.Fatalf("table-corruptions-detected = %d, want 1", got)
	}
	// Expected corruption counts as a detection, not a violation.
	mustClean(t, w)

	// Without flip injection the same observation is a hard violation.
	w2, _ := newWatch()
	w2.OnTransaction(tx(bus.WriteBack, 9, 0), bus.Result{Aborted: true})
	if v := w2.Violations(); len(v) != 1 || !strings.Contains(v[0], "no stale sharer") {
		t.Fatalf("violations = %v", v)
	}
}

// TestLegalAbortsHaveShadowCause: aborts explained by the shadow are
// not phantoms.
func TestLegalAbortsHaveShadowCause(t *testing.T) {
	w, rec := newWatch()
	// Board 0 owns frame 4: aborting board 1's read-shared is the
	// protocol working as designed.
	w.OnTransaction(tx(bus.ReadPrivate, 4, 0), bus.Result{})
	w.OnTransaction(tx(bus.ReadShared, 4, 1), bus.Result{Aborted: true})
	// Frame 6: board 1 holds a stale shared copy, so board 0's
	// write-back (it acquired ownership after board 1's copy went
	// stale) can be aborted by that stale entry.
	w.OnTransaction(tx(bus.ReadShared, 6, 1), bus.Result{})
	w.OnTransaction(tx(bus.AssertOwnership, 6, 0), bus.Result{})
	w.OnTransaction(tx(bus.WriteBack, 6, 0), bus.Result{Aborted: true})
	if got := rec.Value("check/phantom-aborts"); got != 0 {
		t.Errorf("phantom-aborts = %d for aborts with shadow cause", got)
	}
	if got := rec.Value("check/aborted-write-backs"); got != 1 {
		t.Errorf("aborted-write-backs = %d, want 1", got)
	}
	mustClean(t, w)
}

// TestTransferErrorNoShadowMovement: a failed transfer must leave the
// shadow untouched — the board acquired nothing.
func TestTransferErrorNoShadowMovement(t *testing.T) {
	w, _ := newWatch()
	w.OnTransaction(tx(bus.ReadPrivate, 8, 0), bus.Result{TransferErr: true})
	// If the shadow had recorded board 0 as owner, this would violate.
	w.OnTransaction(tx(bus.ReadPrivate, 8, 1), bus.Result{})
	mustClean(t, w)
}

// TestFinalSweepRepairsPhantoms: quiescent table entries the shadow
// never granted are detected and, when corruption is expected,
// repaired.
func TestFinalSweepRepairsPhantoms(t *testing.T) {
	w, rec := newWatch()
	w.SetExpectCorruption(true)
	v := newView(0)
	w.Attach(v)

	// Legal stale Shared: board 0 once read frame 2 shared, silently
	// evicted it (table entry and shadow role both stay), must be left
	// alone by the sweep.
	w.OnTransaction(tx(bus.ReadShared, 2, 0), bus.Result{})
	v.actions[2] = monitor.Shared

	// Phantom Shared on frame 10 and phantom Private on frame 11: no
	// shadow roles, no held frames.
	v.actions[10] = monitor.Shared
	v.actions[11] = monitor.Private

	// A Private entry guarding a protected (DMA) region is legal
	// without a held page.
	v.actions[12] = monitor.Private
	v.protected[12] = true

	// A Notify watch entry is never cross-checked.
	v.actions[13] = monitor.Notify

	w.FinalSweep()
	mustClean(t, w)
	if got := rec.Value("check/table-corruptions-detected"); got != 2 {
		t.Fatalf("table-corruptions-detected = %d, want 2", got)
	}
	if got := rec.Value("check/table-repairs"); got != 2 {
		t.Fatalf("table-repairs = %d, want 2", got)
	}
	for _, f := range []uint32{10, 11} {
		if v.repairs[f] != monitor.Ignore || v.actions[f] != monitor.Ignore {
			t.Errorf("frame %d not repaired to ignore: %v", f, v.actions[f])
		}
	}
	for _, f := range []uint32{2, 12, 13} {
		if _, repaired := v.repairs[f]; repaired {
			t.Errorf("legal entry on frame %d was repaired", f)
		}
	}
}

// TestFinalSweepWithoutExpectationViolates: in a run with no flip
// injection the sweep records violations and leaves the evidence in
// place.
func TestFinalSweepWithoutExpectationViolates(t *testing.T) {
	w, _ := newWatch()
	v := newView(0)
	w.Attach(v)
	v.actions[10] = monitor.Shared
	w.FinalSweep()
	if got := w.Violations(); len(got) != 1 || !strings.Contains(got[0], "phantom shared") {
		t.Fatalf("violations = %v", got)
	}
	if len(v.repairs) != 0 {
		t.Errorf("table repaired in an unexpected-corruption run: %v", v.repairs)
	}
}

// TestFinalSweepHeldFrames: held frames must carry the matching table
// entry, and private holds must be backed by a bus-granted ownership.
func TestFinalSweepHeldFrames(t *testing.T) {
	w, rec := newWatch()
	w.SetExpectCorruption(true)
	v := newView(1)
	w.Attach(v)

	// Frame 20: legally held private (granted over the bus), but its
	// table entry was flipped away.
	w.OnTransaction(tx(bus.ReadPrivate, 20, 1), bus.Result{})
	v.holds[20] = HoldPrivate
	v.actions[20] = monitor.Ignore

	// Frame 21: legally held shared with a corrupted entry.
	w.OnTransaction(tx(bus.ReadShared, 21, 1), bus.Result{})
	v.holds[21] = HoldShared
	v.actions[21] = monitor.Private

	w.FinalSweep()
	mustClean(t, w)
	if v.actions[20] != monitor.Private || v.actions[21] != monitor.Shared {
		t.Fatalf("held-frame entries not repaired: f20=%v f21=%v", v.actions[20], v.actions[21])
	}
	if got := rec.Value("check/table-repairs"); got != 2 {
		t.Errorf("table-repairs = %d, want 2", got)
	}

	// A private hold the bus never granted is a hard violation even
	// when corruption is expected: repair cannot invent ownership.
	v2 := newView(2)
	v2.holds[30] = HoldPrivate
	v2.actions[30] = monitor.Private
	w2, _ := newWatch()
	w2.SetExpectCorruption(true)
	w2.Attach(v2)
	w2.FinalSweep()
	if got := w2.Violations(); len(got) != 1 || !strings.Contains(got[0], "never granted") {
		t.Fatalf("violations = %v", got)
	}
}

// TestWriteActionTableShadow: explicit table writes move the shadow
// roles like the implicit update window does.
func TestWriteActionTableShadow(t *testing.T) {
	w, _ := newWatch()
	set := func(frame uint32, req int, a monitor.Action) {
		x := tx(bus.WriteActionTable, frame, req)
		x.Action = uint8(a)
		w.OnTransaction(x, bus.Result{})
	}
	// WAT(Private) grants ownership: a later grant to another board
	// violates until WAT(Ignore) releases it.
	set(15, 0, monitor.Private)
	w.OnTransaction(tx(bus.ReadPrivate, 15, 1), bus.Result{})
	if v := w.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want 1", v)
	}

	w2, _ := newWatch()
	set2 := func(frame uint32, req int, a monitor.Action) {
		x := tx(bus.WriteActionTable, frame, req)
		x.Action = uint8(a)
		w2.OnTransaction(x, bus.Result{})
	}
	set2(16, 0, monitor.Private)
	set2(16, 0, monitor.Ignore)
	w2.OnTransaction(tx(bus.ReadPrivate, 16, 1), bus.Result{})
	mustClean(t, w2)
}

// TestSharersPastSixtyFourBoards checks the shadow's sharer set on
// board IDs beyond one 64-bit word, and against the DMA requester:
// board 70's and board 130's shared copies are foreign to other boards
// and to DMA, but never to themselves.
func TestSharersPastSixtyFourBoards(t *testing.T) {
	w, rec := newWatch()
	w.OnTransaction(tx(bus.ReadShared, 9, 70), bus.Result{})
	// Board 70's own copy is no cause for aborting its write-back...
	w.OnTransaction(tx(bus.WriteBack, 9, 70), bus.Result{Aborted: true})
	// ...but it is for board 6's, though 70 and 6 are the same bit of
	// different words.
	w.OnTransaction(tx(bus.WriteBack, 9, 6), bus.Result{Aborted: true})
	// Board 70 alone may take the frame exclusive, which ends its
	// sharer role.
	w.OnTransaction(tx(bus.ReadExclusive, 9, 70), bus.Result{})
	// A DMA exclusive grant over board 130's copy lost an assertion.
	w.OnTransaction(tx(bus.ReadShared, 10, 130), bus.Result{})
	w.OnTransaction(tx(bus.ReadExclusive, 10, bus.NoRequester), bus.Result{})

	v70, v130 := newView(70), newView(130)
	v70.actions[9] = monitor.Shared   // no longer on record
	v130.actions[10] = monitor.Shared // still on record
	w.Attach(v70)
	w.Attach(v130)
	w.FinalSweep()

	v := w.Violations()
	want := []string{"no stale sharer", "foreign sharers", "board 70: phantom shared entry for frame 9"}
	if len(v) != len(want) {
		t.Fatalf("violations = %v, want %d", v, len(want))
	}
	for i, s := range want {
		if !strings.Contains(v[i], s) {
			t.Errorf("violation %d = %q, want mention of %q", i, v[i], s)
		}
	}
	if got := rec.Value("check/phantom-aborts"); got != 1 {
		t.Errorf("phantom-aborts = %d, want 1", got)
	}
}
