// Package monitor implements the per-processor bus monitor: a simple
// state machine that watches the shared bus and interrupts its processor
// when a cache consistency action is required.
//
// The monitor holds a two-bit action-table entry per physical cache page
// frame:
//
//	00 (Ignore)  - do nothing
//	01 (Shared)  - interrupt on read-private or assert-ownership;
//	               ignore read-shared and notify
//	10 (Private) - abort and interrupt on any consistency-related
//	               transaction (including read-shared)
//	11 (Notify)  - interrupt on a notification transaction
//
// and a FIFO of interrupt words (128 entries in the prototype) with an
// overflow flag that triggers the software recovery path. The monitor is
// deliberately not connected to the cache: it never reads cache tags or
// flags, so it costs no processor-to-cache bandwidth.
//
// Deviation from the paper, documented in DESIGN.md: the monitor checks
// its own processor's transactions (that is how virtual-address aliasing
// is caught — the processor "competes against itself"), but it does not
// enqueue FIFO words for them. The requester observes aborts
// synchronously through the failed transaction and resolves aliases from
// the page-state tables it keeps in local memory, which avoids a stale
// self-interrupt race while producing the same externally visible
// behaviour the paper describes.
package monitor

import (
	"fmt"

	"vmp/internal/bus"
	"vmp/internal/obs"
	"vmp/internal/protocol"
	"vmp/internal/stats"
)

// Action is a two-bit action-table entry. It is an alias for
// protocol.Action: the reaction table that interprets the codes lives
// in the protocol layer, while the table storage and FIFO live here.
type Action = protocol.Action

// Action-table codes from Section 3.2, re-exported from protocol.
const (
	Ignore  = protocol.Ignore  // 00 - do nothing
	Shared  = protocol.Shared  // 01 - interrupt on ownership requests
	Private = protocol.Private // 10 - abort + interrupt on any consistency transaction
	Notify  = protocol.Notify  // 11 - interrupt on notification
)

// Word is one FIFO interrupt word: the transaction type and physical
// address that triggered the interrupt.
type Word struct {
	Op    bus.Op
	PAddr uint32
}

// DefaultFIFODepth is the prototype's FIFO capacity.
const DefaultFIFODepth = 128

// Stats counts monitor activity.
type Stats struct {
	Checks     uint64 // transactions inspected
	Aborts     uint64 // aborts signalled
	Interrupts uint64 // words enqueued
	Dropped    uint64 // words lost to FIFO overflow
}

// PostInjector is the fault-injection hook for interrupt-word storms:
// StormExtra returns how many duplicate copies of a posted word to
// enqueue after it (0 = none).
type PostInjector interface {
	StormExtra() int
}

// Monitor is one processor board's bus monitor. Create with New.
type Monitor struct {
	boardID  int
	proto    protocol.Protocol
	pageSize int
	table    []uint8 // packed 2-bit entries, 4 per byte
	frames   int
	fifo     []Word // ring buffer
	head, n  int
	cap      int // effective capacity: min(len(fifo), depth limit)
	dropped  bool
	stats    Stats
	onPost   func()       // interrupt line to the processor, may be nil
	inj      PostInjector // storm injection, may be nil
	sink     *obs.Sink    // observability sink; nil outside a machine (Emit discards)
}

// New creates a monitor for board boardID covering a physical memory of
// frames cache page frames of pageSize bytes each, with the given FIFO
// depth (0 selects DefaultFIFODepth), reacting to bus traffic per the
// given protocol's reaction table (nil selects the default protocol).
func New(boardID, frames, pageSize, fifoDepth int, proto protocol.Protocol) *Monitor {
	if fifoDepth <= 0 {
		fifoDepth = DefaultFIFODepth
	}
	if proto == nil {
		proto, _ = protocol.Get(protocol.DefaultName)
	}
	return &Monitor{
		boardID:  boardID,
		proto:    proto,
		pageSize: pageSize,
		table:    make([]uint8, (frames+3)/4),
		frames:   frames,
		fifo:     make([]Word, fifoDepth),
		cap:      fifoDepth,
	}
}

// SetDepthLimit squeezes the effective FIFO capacity to min(depth, n),
// the fault layer's way of forcing overflow without rebuilding the
// monitor. n <= 0 restores the full depth.
func (m *Monitor) SetDepthLimit(n int) {
	if n <= 0 || n > len(m.fifo) {
		m.cap = len(m.fifo)
		return
	}
	m.cap = n
}

// SetInjector attaches a storm injector consulted on every posted word
// (nil detaches).
func (m *Monitor) SetInjector(inj PostInjector) { m.inj = inj }

// SetSink attaches the observability sink: every enqueued word emits a
// KindIntr event and every dropped word a KindOverflow event, stamped
// with the sink's clock (the monitor has none of its own).
func (m *Monitor) SetSink(s *obs.Sink) { m.sink = s }

// Register indexes the monitor's counters in a run's metrics sink under
// the given name prefix (e.g. "board0/monitor/").
func (m *Monitor) Register(rec *stats.Recorder, prefix string) {
	s := &m.stats
	stats.Register(rec, prefix+"checks", &s.Checks)
	stats.Register(rec, prefix+"aborts", &s.Aborts)
	stats.Register(rec, prefix+"interrupts", &s.Interrupts)
	stats.Register(rec, prefix+"dropped-words", &s.Dropped)
}

// BoardID implements bus.Snooper.
func (m *Monitor) BoardID() int { return m.boardID }

// SetInterruptLine registers fn to be called whenever a word is
// enqueued (the non-maskable interrupt to the processor).
func (m *Monitor) SetInterruptLine(fn func()) { m.onPost = fn }

// Stats returns a copy of the counters.
func (m *Monitor) Stats() Stats { return m.stats }

// frame converts a physical address to its frame number.
func (m *Monitor) frame(paddr uint32) int { return int(paddr) / m.pageSize }

// Action returns the table entry for the frame containing paddr.
//
//vmplint:hotpath
func (m *Monitor) Action(paddr uint32) Action {
	f := m.frame(paddr)
	if f < 0 || f >= m.frames {
		return Ignore
	}
	shift := uint(f&3) * 2
	return Action(m.table[f>>2] >> shift & 3)
}

// SetAction writes the table entry for the frame containing paddr.
// This is the local-side write; going over the bus costs a
// write-action-table transaction, which the core issues where the paper
// requires it.
func (m *Monitor) SetAction(paddr uint32, a Action) {
	f := m.frame(paddr)
	if f < 0 || f >= m.frames {
		panic(fmt.Sprintf("monitor: SetAction out of range paddr %#x", paddr))
	}
	shift := uint(f&3) * 2
	m.table[f>>2] = m.table[f>>2]&^(3<<shift) | uint8(a)<<shift
}

// Check implements bus.Snooper: the consistency-check window decision,
// delegated to the protocol's reaction table.
//
//vmplint:hotpath
func (m *Monitor) Check(tx bus.Transaction) protocol.Reaction {
	m.stats.Checks++
	r := m.proto.React(m.Action(tx.PAddr), tx.Op, tx.Requester == m.boardID)
	if r.Abort {
		m.stats.Aborts++
	}
	return r
}

// Post implements bus.Snooper: enqueue a FIFO word, or set the overflow
// flag if the FIFO is full. Under an injected storm the word is
// duplicated; duplicates are harmless to a correct service routine
// (interrupt handling is idempotent and state-based) but fill the FIFO
// toward overflow.
//
//vmplint:hotpath
func (m *Monitor) Post(tx bus.Transaction) {
	w := Word{Op: tx.Op, PAddr: tx.PAddr}
	m.push(w)
	if m.inj != nil {
		for extra := m.inj.StormExtra(); extra > 0; extra-- {
			m.push(w)
		}
	}
}

// push enqueues one word or records overflow.
//
//vmplint:hotpath
func (m *Monitor) push(w Word) {
	if m.n >= m.cap {
		m.dropped = true
		m.stats.Dropped++
		m.sink.Emit(obs.Event{
			Time: m.sink.Now(), PAddr: w.PAddr, Board: int16(m.boardID),
			Kind: obs.KindOverflow, Arg: uint8(w.Op),
		})
		return
	}
	m.fifo[(m.head+m.n)%len(m.fifo)] = w
	m.n++
	m.stats.Interrupts++
	m.sink.Emit(obs.Event{
		Time: m.sink.Now(), PAddr: w.PAddr, Board: int16(m.boardID),
		Kind: obs.KindIntr, Arg: uint8(w.Op),
	})
	if m.onPost != nil {
		m.onPost()
	}
}

// UpdateFromOwn implements bus.Snooper: the overlapped action-table
// update performed as a side effect of this processor's own successful
// transaction, delegated to the protocol's transition table.
func (m *Monitor) UpdateFromOwn(tx bus.Transaction, res bus.Result) {
	if a, ok := m.proto.TableUpdate(tx.Op, tx.Downgrade, res.SharedSeen, tx.Action); ok {
		m.SetAction(tx.PAddr, a)
	}
}

// Pending reports the number of queued interrupt words.
func (m *Monitor) Pending() int { return m.n }

// Pop dequeues the oldest interrupt word.
func (m *Monitor) Pop() (Word, bool) {
	if m.n == 0 {
		return Word{}, false
	}
	w := m.fifo[m.head]
	m.head = (m.head + 1) % len(m.fifo)
	m.n--
	return w, true
}

// Dropped reports whether a word has been lost to FIFO overflow since
// the last ClearDropped. The processor's recovery path must then
// conservatively resynchronize its cache and table.
func (m *Monitor) Dropped() bool { return m.dropped }

// ClearDropped resets the overflow flag.
func (m *Monitor) ClearDropped() { m.dropped = false }

// Drain discards all queued words (used by the overflow recovery path,
// which rebuilds state from scratch rather than replaying words).
func (m *Monitor) Drain() {
	m.head, m.n = 0, 0
}

// Frames returns the number of frames the action table covers.
func (m *Monitor) Frames() int { return m.frames }

// ForEach calls fn for every frame whose action-table entry is not
// Ignore, in frame order. Used by the invariant watchdog's quiescent
// table sweep.
func (m *Monitor) ForEach(fn func(frame uint32, act Action)) {
	for f := 0; f < m.frames; f++ {
		shift := uint(f&3) * 2
		if a := Action(m.table[f>>2] >> shift & 3); a != Ignore {
			fn(uint32(f), a)
		}
	}
}
