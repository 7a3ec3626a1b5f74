package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op; a
// span with Parent 0 is the operation's root, any other names the span that
// caused it.
type span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration
}

// recorder keeps spans in memory until the run ends. The traced pass is
// sequential, so it needs no lock. A nil recorder times the call and
// records nothing — the untraced side of client.trace_overhead_pct.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// time runs fn as a span under parent and returns its id and duration.
func (r *recorder) time(name string, op, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r == nil {
		return 0, d
	}
	s := start.Sub(r.t0)
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: s, End: s + d})
	return len(r.spans), d
}

// writeChromeTrace writes the spans as Chrome trace_event JSON, which
// Perfetto opens: one complete ("X") event per span, one track per layer
// name, with the operation id and parent span in args.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	tracks := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		tid, ok := tracks[s.Name]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.Name] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: tid,
			Args: map[string]int{"op": s.Op, "id": s.ID, "parent": s.Parent},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
