package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed step the harness made around a call into a layer.
// Spans of one simulation run, or of one vmpd session, share a run id.
type span struct {
	Layer, Name string
	Run         int
	Start, End  time.Time
}

func (s span) seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path calls the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span times fn and records it as layer.name under run.
func (t *tracer) span(layer, name string, run int, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Run: run, Start: start, End: time.Now()})
	return err
}

// total sums the durations of the spans named layer.name in run.
func (t *tracer) total(layer, name string, run int) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Layer == layer && sp.Name == name && sp.Run == run {
			s += sp.seconds()
		}
	}
	return s
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and ui.perfetto.dev both read.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a trace-event JSON file, one thread
// per run id.
func (t *tracer) writeChrome(path string) error {
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.Layer + "." + s.Name,
			Cat:  s.Layer,
			Ph:   "X",
			TS:   float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID:  1,
			TID:  s.Run,
			Args: map[string]int{"run": s.Run},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
