package telemetry

import "time"

// Span is one completed service-side interval: a named stretch of host
// time on a logical track ("queue", "run", "store", "stream"). Spans
// carry offsets from a caller-chosen epoch rather than absolute wall
// times, so a recorded job can be replayed into a trace whose t=0 is
// the job's own admission — and so the stored form has no ambient
// wall-clock reading to drift across machines.
//
// Spans are the bridge between the two observability worlds: the
// serving layer records them on the host clock, and obs's Perfetto
// exporter renders them as tracks above the simulator's own
// sim-clock events (see obs.WriteServiceTrace).
type Span struct {
	Track string        `json:"track"`          // logical lane, e.g. "job", "store"
	Name  string        `json:"name"`           // human label, e.g. "queue", "run"
	Start time.Duration `json:"start_ns"`       // offset from the epoch
	Dur   time.Duration `json:"dur_ns"`         // interval length
	Note  string        `json:"note,omitempty"` // optional annotation (fingerprint, state)
}

// SpanRecorder accumulates spans against a fixed epoch. It is not
// goroutine-safe on its own; callers that share one (the serve job
// object) already serialize through their own mutex.
type SpanRecorder struct {
	epoch time.Time
	spans []Span
}

// maxRecordedSpans bounds a recorder the same way job event logs are
// bounded: a runaway span source cannot grow memory without limit.
// Oldest spans win — the admission-side spans are the ones a trace
// reader needs to anchor the timeline.
const maxRecordedSpans = 4096

// NewSpanRecorder starts a recorder whose offsets are measured from
// epoch.
func NewSpanRecorder(epoch time.Time) *SpanRecorder {
	return &SpanRecorder{epoch: epoch}
}

// Record adds a completed interval [start, end) on the given track.
// Intervals before the epoch are clamped to it.
func (sr *SpanRecorder) Record(track, name string, start, end time.Time, note string) {
	if len(sr.spans) >= maxRecordedSpans {
		return
	}
	if start.Before(sr.epoch) {
		start = sr.epoch
	}
	if end.Before(start) {
		end = start
	}
	sr.spans = append(sr.spans, Span{
		Track: track,
		Name:  name,
		Start: start.Sub(sr.epoch),
		Dur:   end.Sub(start),
		Note:  note,
	})
}

// Mark adds a zero-duration span — an instant marker on a track.
func (sr *SpanRecorder) Mark(track, name string, at time.Time, note string) {
	sr.Record(track, name, at, at, note)
}

// Spans returns a copy of everything recorded so far.
func (sr *SpanRecorder) Spans() []Span {
	return append([]Span(nil), sr.spans...)
}
