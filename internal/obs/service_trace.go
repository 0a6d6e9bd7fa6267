package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"vmp/internal/telemetry"
)

// Service-span export: the serving layer's host-clock job spans
// (telemetry.Span) rendered into the same Perfetto document as the
// simulator's sim-clock events, so one trace shows the service view
// (admit → queue → run → store → stream) stacked above the machine
// view (bus transactions, misses, copies).
//
// The two clocks are different things — host nanoseconds since job
// admission versus simulated nanoseconds since machine reset — and no
// alignment between them is meaningful, so none is invented: both
// start at t=0 and the trace is read per-track. Service tracks take
// tids 2..9 (between the bus track and the board tracks) so they sort
// above the hardware in the viewer.

const (
	svcTIDBase = 2
	// Tids 2..9: up to 8 distinct service tracks, below boardTIDBase.
	maxSvcTracks = boardTIDBase - svcTIDBase
)

// WriteServiceTrace writes one Perfetto JSON document combining
// service spans and (optionally empty) sim events. Track assignment is
// deterministic: service tracks sort by name. Span offsets are host
// time from the job epoch; events are simulated time from reset.
func WriteServiceTrace(w io.Writer, spans []telemetry.Span, events []Event) error {
	names := make([]string, 0, 4)
	seen := map[string]bool{}
	for _, s := range spans {
		if !seen[s.Track] {
			seen[s.Track] = true
			names = append(names, s.Track)
		}
	}
	sort.Strings(names)
	if len(names) > maxSvcTracks {
		names = names[:maxSvcTracks]
	}
	tids := make(map[string]int, len(names))
	for i, n := range names {
		tids[n] = svcTIDBase + i
	}

	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	emit := rowWriter(bw)
	for i, n := range names {
		emitTrack(emit, tids[n], "svc:"+n, -maxSvcTracks+i)
	}
	for _, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			continue // beyond the track budget
		}
		args := "{}"
		if s.Note != "" {
			args = fmt.Sprintf(`{"note":%q}`, s.Note)
		}
		if s.Dur > 0 {
			emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"name":%q,"args":%s}`,
				tid, micros(s.Start.Nanoseconds()), micros(s.Dur.Nanoseconds()), s.Name, args))
		} else {
			emit(fmt.Sprintf(`{"ph":"i","pid":0,"tid":%d,"ts":%s,"s":"t","name":%q,"args":%s}`,
				tid, micros(s.Start.Nanoseconds()), s.Name, args))
		}
	}
	// A spans-only document gets no sim tracks, not even the bus.
	if len(events) > 0 {
		writeEventRows(emit, events)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
