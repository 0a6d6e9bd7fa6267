package obs

import (
	"bufio"
	"fmt"
	"io"
)

// Perfetto / Chrome trace-event export: the retained event stream
// rendered as a JSON object-format trace that loads in
// https://ui.perfetto.dev or chrome://tracing, with one track (thread)
// per processor board, one per board's block copier, and a bus track.
// Timestamps are in microseconds (the trace-event unit) with
// nanosecond precision preserved as fractional digits.

// Track ids. Thread ids only need to be distinct within the trace; the
// scheme leaves room for any board count.
const (
	busTID = 1
	// linkTID is the inter-bus link track of a hierarchical machine.
	linkTID = 990
	// Bus segment s of a hierarchical machine is segTIDBase+s. KindBus
	// events tag their segment in the ASID byte as 1+segment (0 is
	// reserved, so single-bus streams — which always carry 0 there —
	// keep their historical single-track rendering).
	segTIDBase = 1000
	// board i's CPU track is boardTIDBase+2i, its copier boardTIDBase+2i+1.
	boardTIDBase = 10
)

func cpuTID(board int16) int    { return boardTIDBase + 2*int(board) }
func copierTID(board int16) int { return boardTIDBase + 2*int(board) + 1 }

// traceTID places an event on its track.
func traceTID(e Event) int {
	switch e.Kind {
	case KindBus:
		if e.ASID > 0 {
			return segTIDBase + int(e.ASID) - 1
		}
		return busTID
	case KindViolation:
		return busTID
	case KindLink:
		return linkTID
	case KindCopy:
		return copierTID(e.Board)
	default:
		return cpuTID(e.Board)
	}
}

// traceName names an event for the track viewer.
func traceName(e Event) string {
	switch e.Kind {
	case KindBus, KindIntr, KindCopy, KindLink:
		n := ArgName(e.Kind, e.Arg)
		if e.Kind == KindIntr {
			return "intr:" + n
		}
		if e.Kind == KindCopy {
			return "copy:" + n
		}
		if e.Kind == KindLink {
			return "link:" + n
		}
		return n
	case KindPhase:
		return ArgName(e.Kind, e.Arg)
	default:
		return e.Kind.String()
	}
}

// micros renders a sim.Time nanosecond count as fractional trace-event
// microseconds.
func micros(ns int64) string { return fmt.Sprintf("%d.%03d", ns/1000, ns%1000) }

// WriteTrace writes events as a Chrome trace-event / Perfetto JSON
// document. Events must come from one run (one simulated clock); they
// are written in stream order, which trace viewers accept unsorted.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	writeEventRows(rowWriter(bw), events)
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// rowWriter returns a function that appends one trace-event row to bw,
// separating rows with commas.
func rowWriter(bw *bufio.Writer) func(string) {
	first := true
	return func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
}

// emitTrack writes the metadata rows that name a track and fix its
// place in the viewer.
func emitTrack(emit func(string), tid int, name string, sortIndex int) {
	emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tid, name))
	emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, tid, sortIndex))
}

// writeEventRows writes the track metadata for every track the event
// stream touches, in a fixed order so identical streams produce
// identical documents, then one row per event in stream order.
func writeEventRows(emit func(string), events []Event) {
	seen := map[int]bool{}
	addTrack := func(tid int, name string) {
		if !seen[tid] {
			emitTrack(emit, tid, name, len(seen))
			seen[tid] = true
		}
	}
	addTrack(busTID, "bus")
	maxBoard := int16(-1)
	maxSeg, haveLink := 0, false
	for _, e := range events {
		if e.Board > maxBoard {
			maxBoard = e.Board
		}
		if e.Kind == KindBus && int(e.ASID) > maxSeg {
			maxSeg = int(e.ASID)
		}
		if e.Kind == KindLink {
			haveLink = true
		}
	}
	// Hierarchical streams tag bus events with 1+segment; single-bus
	// streams carry 0 and add no tracks here, keeping their historical
	// document byte-identical.
	for s := 1; s <= maxSeg; s++ {
		addTrack(segTIDBase+s-1, fmt.Sprintf("bus/seg%d", s-1))
	}
	if haveLink {
		addTrack(linkTID, "bus/link")
	}
	for b := int16(0); b <= maxBoard; b++ {
		addTrack(cpuTID(b), fmt.Sprintf("board%d", b))
		addTrack(copierTID(b), fmt.Sprintf("board%d/copier", b))
	}
	for _, e := range events {
		tid := traceTID(e)
		name := traceName(e)
		args := fmt.Sprintf(`{"paddr":"%#08x","board":%d,"asid":%d`, e.PAddr, e.Board, e.ASID)
		if fs := flagString(e.Flags &^ FlagConsistency); fs != "" {
			args += fmt.Sprintf(`,"flags":%q`, fs)
		}
		args += "}"
		if e.Dur > 0 {
			emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":%s}`,
				tid, micros(int64(e.Time)), micros(int64(e.Dur)), name, args))
		} else {
			emit(fmt.Sprintf(`{"ph":"i","pid":0,"tid":%d,"ts":%s,"s":"t","name":%q,"args":%s}`,
				tid, micros(int64(e.Time)), name, args))
		}
	}
}
