package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"strconv"

	"graphpulse/internal/atomicio"
)

// WriteFiles exports the recorder as prefix.csv (WriteCSV) and
// prefix.trace.json (WriteChromeTrace at clockHz), the pair every
// -telemetry flag produces. Each file is written atomically, and a failed
// trace write removes the CSV already in place, so a caller sees both files
// or neither.
func (r *Recorder) WriteFiles(prefix string, clockHz float64) (csvPath, tracePath string, err error) {
	csvPath, tracePath = prefix+".csv", prefix+".trace.json"
	if err = atomicio.WriteFile(csvPath, r.WriteCSV); err != nil {
		return "", "", err
	}
	err = atomicio.WriteFile(tracePath, func(w io.Writer) error { return r.WriteChromeTrace(w, clockHz) })
	if err != nil {
		os.Remove(csvPath)
		return "", "", err
	}
	return csvPath, tracePath, nil
}

// WriteCSV writes every series in long form — one row per sample:
//
//	cycle,component,series,unit,kind,value
//
// Rows are grouped by series in registration order, chronological within a
// series, so output is deterministic. A disabled Recorder writes the header
// only.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cycle", "component", "series", "unit", "kind", "value"}); err != nil {
		return err
	}
	for _, s := range r.Series() {
		for _, p := range s.Samples {
			rec := []string{
				strconv.FormatUint(p.Cycle, 10),
				s.Component,
				s.Name,
				s.Unit,
				s.Kind.String(),
				strconv.FormatInt(p.Value, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// traceEvent is one Chrome trace_event object. Only the fields counter ("C")
// and metadata ("M") events need.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the series as Chrome trace_event JSON, loadable in
// chrome://tracing and https://ui.perfetto.dev: one process (track group)
// per component, one counter track ("ph":"C") per series. Timestamps are in
// microseconds of simulated time at the given clock (clockHz ≤ 0 defaults
// to 1 GHz, the paper's Table III clock).
func (r *Recorder) WriteChromeTrace(w io.Writer, clockHz float64) error {
	if clockHz <= 0 {
		clockHz = 1e9
	}
	usPerCycle := 1e6 / clockHz

	var events []traceEvent
	pids := map[string]int{}
	for _, s := range r.Series() {
		pid, ok := pids[s.Component]
		if !ok {
			pid = len(pids) + 1
			pids[s.Component] = pid
			events = append(events, traceEvent{
				Name:  "process_name",
				Phase: "M",
				PID:   pid,
				Args:  map[string]any{"name": s.Component},
			})
		}
		track := s.Name + " (" + s.Unit + ")"
		for _, p := range s.Samples {
			events = append(events, traceEvent{
				Name:  track,
				Phase: "C",
				TS:    float64(p.Cycle) * usPerCycle,
				PID:   pid,
				Args:  map[string]any{s.Unit: p.Value},
			})
		}
	}
	if events == nil {
		events = []traceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}
