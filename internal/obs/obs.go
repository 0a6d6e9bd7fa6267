// Package obs is the simulation flight recorder: a structured
// event-tracing layer threaded through the engine's components (bus,
// miss handler, monitor, copier). Every bus transaction, miss-handler
// phase, monitor interrupt, and copier transfer emits a typed Event
// carrying its simulated timestamp, board id, ASID and cache-page
// address into a per-run Sink.
//
// On top of the raw stream the sink maintains, always and cheaply:
//
//   - a bounded ring buffer (the flight recorder proper) holding the
//     most recent events, dumped automatically when the protocol
//     invariant watchdog records a violation or a livelock hard limit
//     panics, so a failing run leaves a record of what happened just
//     before;
//   - per-phase simulated-latency histograms (stats.Histogram), the
//     measured analogue of the paper's Table 2 miss-cost breakdown;
//   - hot-page attribution: per cache page, the consistency traffic,
//     abort count and bus occupancy — the software analogue of the
//     paper's bus monitor watching the bus.
//
// The full stream is retained only when Config.Stream is set (the
// Perfetto exporter needs it); the ring, histograms and page stats are
// O(1) per event.
//
// Every core.Machine builds one sink (the default ring when its config
// names none) and hands it to its boards, bus, monitors and copiers,
// which emit without a guard. Emit and Now also accept a nil *Sink, for
// components built outside a machine. The ring's cost is counted, not
// timed: TestTracingOverheadGuard in internal/scenario prices each
// event class's Emit and multiplies by the events a run emits.
//
// A Sink is engine-confined like everything else in a run: one sink per
// engine, never shared across goroutines. Separate runs use separate
// sinks and may proceed in parallel; because the engine's event loop is
// deterministic, the same run id always yields a byte-identical event
// stream, serial or parallel.
package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"vmp/internal/busop"
	"vmp/internal/sim"
	"vmp/internal/stats"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KindBus       Kind = iota // bus transaction; Arg is the bus.Op
	KindPhase                 // miss-handler phase; Arg is the Phase
	KindIntr                  // monitor FIFO word posted; Arg is the bus.Op
	KindOverflow              // monitor FIFO word dropped (overflow)
	KindCopy                  // copier block transfer; Arg is the bus.Op
	KindViolation             // invariant watchdog recorded a violation
	KindLink                  // inter-bus link crossing; Arg is the bus.Op
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBus:
		return "bus"
	case KindPhase:
		return "phase"
	case KindIntr:
		return "intr"
	case KindOverflow:
		return "fifo-overflow"
	case KindCopy:
		return "copy"
	case KindViolation:
		return "violation"
	case KindLink:
		return "link"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Phase is one miss-handler phase (the Arg of a KindPhase event) —
// the trap/victim/write-back/translate/copy decomposition of Section 2
// that the paper's Table 2 costs out.
type Phase uint8

// Miss-handler phases.
const (
	PhaseMiss      Phase = iota // whole miss-handler invocation
	PhaseTrap                   // exception entry
	PhaseTranslate              // software table walk (incl. nested fills)
	PhaseVictim                 // victim selection + eviction
	PhaseWriteBack              // dirty-victim (or release) write-back
	PhaseCopy                   // block-copy fill, incl. overlapped bookkeeping
	PhaseRetry                  // post-abort backoff + conflict resolution
	PhaseEpilogue               // exception return
	PhaseUpgrade                // assert-ownership write upgrade
	PhaseIntrSvc                // one consistency-interrupt word serviced
	NumPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMiss:
		return "miss"
	case PhaseTrap:
		return "trap"
	case PhaseTranslate:
		return "translate"
	case PhaseVictim:
		return "victim"
	case PhaseWriteBack:
		return "write-back"
	case PhaseCopy:
		return "copy"
	case PhaseRetry:
		return "retry"
	case PhaseEpilogue:
		return "epilogue"
	case PhaseUpgrade:
		return "upgrade"
	case PhaseIntrSvc:
		return "intr-service"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Event flags.
const (
	// FlagAborted marks a transaction or phase that ended in an abort
	// (for PhaseMiss/PhaseUpgrade: the invocation will be retried).
	FlagAborted uint8 = 1 << iota
	// FlagSpurious marks an abort injected by the fault layer.
	FlagSpurious
	// FlagTransferErr marks an injected block-transfer error.
	FlagTransferErr
	// FlagNested marks a nested (page-table) miss-handler invocation.
	FlagNested
	// FlagConsistency marks a bus transaction the monitors check against
	// their action tables (set by the bus so the sink can attribute
	// consistency traffic without importing the bus package).
	FlagConsistency
)

// NoBoard is the Board value for events with no issuing board (DMA).
const NoBoard = -1

// Event is one traced occurrence. Events are fixed-size and
// allocation-free to record; interpretation of Arg depends on Kind.
type Event struct {
	Time  sim.Time // simulated start time
	Dur   sim.Time // duration (0 for instant events)
	PAddr uint32   // cache-page (physical) address
	Board int16    // issuing board, or NoBoard
	ASID  uint8    // address space, 0 when not applicable
	Kind  Kind
	Arg   uint8 // bus.Op or Phase, depending on Kind
	Flags uint8
}

// ArgName renders an event's Arg for the given kind. Bus-op names come
// from the shared busop leaf package (obs cannot import the bus package
// — the bus imports obs — but both import busop, so the name table
// exists once and agreement is a compile-time property instead of a
// pinned test).
func ArgName(k Kind, arg uint8) string {
	switch k {
	case KindBus, KindIntr, KindCopy, KindLink:
		if int(arg) < int(busop.NumOps) {
			return busop.Op(arg).String()
		}
		return fmt.Sprintf("op(%d)", arg)
	case KindPhase:
		return Phase(arg).String()
	default:
		return ""
	}
}

// flagString renders the flag bits compactly.
func flagString(f uint8) string {
	var parts []string
	if f&FlagAborted != 0 {
		parts = append(parts, "ABORT")
	}
	if f&FlagSpurious != 0 {
		parts = append(parts, "SPURIOUS")
	}
	if f&FlagTransferErr != 0 {
		parts = append(parts, "XFERERR")
	}
	if f&FlagNested != 0 {
		parts = append(parts, "nested")
	}
	return strings.Join(parts, ",")
}

// String renders one event as a flight-recorder line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%12dns] ", int64(e.Time))
	if e.Board == NoBoard {
		b.WriteString("dma    ")
	} else {
		fmt.Fprintf(&b, "board%-2d", e.Board)
	}
	fmt.Fprintf(&b, " %-13s", e.Kind.String())
	if n := ArgName(e.Kind, e.Arg); n != "" {
		fmt.Fprintf(&b, " %-18s", n)
	}
	fmt.Fprintf(&b, " paddr=%#08x", e.PAddr)
	if e.ASID != 0 {
		fmt.Fprintf(&b, " asid=%d", e.ASID)
	}
	if e.Dur != 0 {
		fmt.Fprintf(&b, " dur=%v", e.Dur)
	}
	if fs := flagString(e.Flags); fs != "" {
		b.WriteString(" " + fs)
	}
	return b.String()
}

// eventWireSize is the fixed binary encoding size of one event.
const eventWireSize = 26

// AppendBinary appends the event's fixed-size little-endian encoding,
// used by Encode and by the serial==parallel byte-identity tests.
func (e Event) AppendBinary(dst []byte) []byte {
	var buf [eventWireSize]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.Time))
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.Dur))
	binary.LittleEndian.PutUint32(buf[16:], e.PAddr)
	binary.LittleEndian.PutUint16(buf[20:], uint16(e.Board))
	buf[22] = e.ASID
	buf[23] = uint8(e.Kind)
	buf[24] = e.Arg
	buf[25] = e.Flags
	return append(dst, buf[:]...)
}

// Encode writes the fixed-size binary encoding of events to w.
func Encode(w io.Writer, events []Event) error {
	buf := make([]byte, 0, 4096)
	for _, e := range events {
		buf = e.AppendBinary(buf)
		if len(buf) >= 4096-eventWireSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// PageStat is the consistency-traffic attribution for one cache page.
type PageStat struct {
	PAddr   uint32 // page address
	Traffic uint64 // consistency-related bus transactions
	Aborts  uint64 // aborted transactions on the page
	BusNs   int64  // bus occupancy attributed to the page
}

// DefaultRingSize is the flight-recorder capacity when Config.RingSize
// is zero.
const DefaultRingSize = 4096

// Config tunes a Sink.
type Config struct {
	// RingSize is the flight-recorder capacity in events (0 selects
	// DefaultRingSize; rounded up to a power of two).
	RingSize int
	// Stream retains the full event stream in memory, required by the
	// Perfetto exporter and the byte-identity tests. Off by default: a
	// long run's stream is unbounded.
	Stream bool
	// DumpTo receives automatic flight-recorder dumps (nil = stderr).
	DumpTo io.Writer
}

// Sink is a per-run event sink. Emit and Now accept a nil *Sink, which
// discards events and reads time 0; the other methods need a sink.
type Sink struct {
	now    func() sim.Time
	ring   []Event
	mask   uint64
	total  uint64
	stream []Event
	keep   bool

	hists [NumPhases]*stats.Histogram
	pages map[uint32]*PageStat

	dumpTo io.Writer
	dumped bool
}

// NewSink builds a sink; now supplies the current simulated time (pass
// the engine's Now) for events emitted by components with no clock of
// their own (the bus monitors).
func NewSink(cfg Config, now func() sim.Time) *Sink {
	size := cfg.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	pow := 1
	for pow < size {
		pow <<= 1
	}
	s := &Sink{
		now:    now,
		ring:   make([]Event, pow),
		mask:   uint64(pow - 1),
		keep:   cfg.Stream,
		pages:  make(map[uint32]*PageStat),
		dumpTo: cfg.DumpTo,
	}
	if s.dumpTo == nil {
		s.dumpTo = os.Stderr
	}
	for i := range s.hists {
		// Exponential µs buckets covering sub-µs phases up to multi-ms
		// contention tails.
		s.hists[i] = stats.NewHistogram(0.5, 4096)
	}
	return s
}

// Now returns the current simulated time (0 for a nil sink).
func (s *Sink) Now() sim.Time {
	if s == nil || s.now == nil {
		return 0
	}
	return s.now()
}

// Emit records one event: into the ring, the per-phase histograms, the
// hot-page attribution, and (when enabled) the retained stream.
func (s *Sink) Emit(ev Event) {
	if s == nil {
		return
	}
	s.ring[s.total&s.mask] = ev
	s.total++
	if s.keep {
		s.stream = append(s.stream, ev)
	}
	switch ev.Kind {
	case KindPhase:
		if int(ev.Arg) < len(s.hists) {
			s.hists[ev.Arg].Add(ev.Dur.Micros())
		}
	case KindBus:
		if ev.Flags&FlagConsistency != 0 {
			ps := s.pages[ev.PAddr]
			if ps == nil {
				ps = &PageStat{PAddr: ev.PAddr}
				s.pages[ev.PAddr] = ps
			}
			ps.Traffic++
			ps.BusNs += int64(ev.Dur)
			if ev.Flags&FlagAborted != 0 {
				ps.Aborts++
			}
		}
	}
}

// Total returns the number of events emitted so far.
func (s *Sink) Total() uint64 { return s.total }

// Ring returns the flight-recorder contents, oldest first.
func (s *Sink) Ring() []Event {
	if s.total == 0 {
		return nil
	}
	n := s.total
	if n > uint64(len(s.ring)) {
		n = uint64(len(s.ring))
	}
	out := make([]Event, 0, n)
	for i := s.total - n; i < s.total; i++ {
		out = append(out, s.ring[i&s.mask])
	}
	return out
}

// Stream returns the retained full event stream (nil unless
// Config.Stream was set).
func (s *Sink) Stream() []Event { return s.stream }

// PhaseHist returns the latency histogram (in µs) for one phase.
func (s *Sink) PhaseHist(p Phase) *stats.Histogram {
	if int(p) >= len(s.hists) {
		return nil
	}
	return s.hists[p]
}

// Digest returns an FNV-1a hash of the binary encoding of the retained
// stream (falling back to the ring when no stream is kept): a compact
// fingerprint for serial==parallel byte-identity checks.
func (s *Sink) Digest() uint64 {
	evs := s.stream
	if !s.keep {
		evs = s.Ring()
	}
	var buf []byte
	h := uint64(14695981039346656037)
	for _, e := range evs {
		buf = e.AppendBinary(buf[:0])
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	return h
}

// HotPages returns the top-n cache pages ranked by consistency traffic,
// then abort count, then address (ties broken deterministically). n <= 0
// returns all pages.
func (s *Sink) HotPages(n int) []PageStat {
	out := make([]PageStat, 0, len(s.pages))
	for _, ps := range s.pages {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Traffic != out[j].Traffic {
			return out[i].Traffic > out[j].Traffic
		}
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		return out[i].PAddr < out[j].PAddr
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// HotPageTable renders the top-n hot pages as a table.
func (s *Sink) HotPageTable(n int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Hot cache pages (top %d by consistency traffic)", n),
		"Page Addr", "Consistency Txns", "Aborts", "Bus Time (µs)")
	for _, ps := range s.HotPages(n) {
		t.Add(fmt.Sprintf("%#08x", ps.PAddr), ps.Traffic, ps.Aborts, sim.Time(ps.BusNs).Micros())
	}
	return t
}

// PhaseTable renders the per-phase latency breakdown: the Table-2-style
// miss-cost view measured from the event stream.
func (s *Sink) PhaseTable() *stats.Table {
	t := stats.NewTable("Miss-handler phase latencies (measured from the event stream)",
		"Phase", "Count", "Mean (µs)", "P95 (µs)", "Max (µs)", "Total (ms)")
	for p := Phase(0); p < NumPhases; p++ {
		h := s.hists[p]
		if h.Count() == 0 {
			continue
		}
		total := h.Mean() * float64(h.Count()) / 1000
		t.Add(p.String(), h.Count(), h.Mean(), h.Percentile(95), h.Max(), total)
	}
	return t
}

// DumpRing writes the flight-recorder contents to w, newest last.
func (s *Sink) DumpRing(w io.Writer) {
	evs := s.Ring()
	fmt.Fprintf(w, "flight recorder: last %d of %d events\n", len(evs), s.total)
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
}

// AutoDump writes the flight recorder to the configured dump target,
// once per run: the first fault wins, later calls are no-ops so a
// cascade of violations does not flood the output.
func (s *Sink) AutoDump(reason string) {
	if s.dumped {
		return
	}
	s.dumped = true
	fmt.Fprintf(s.dumpTo, "\n=== FLIGHT RECORDER DUMP: %s ===\n", reason)
	s.DumpRing(s.dumpTo)
}

// Dumped reports whether AutoDump has fired.
func (s *Sink) Dumped() bool { return s.dumped }
