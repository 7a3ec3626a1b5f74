package bench

import (
	"fmt"

	"graphpulse/internal/core"
)

// timelineSeries are the series the timeline experiment charts: queue
// occupancy, event throughput per interval, and DRAM bytes per interval —
// the time-resolved signals behind the paper's occupancy and bandwidth
// discussion (Sections IV-D, VI-B).
var timelineSeries = []string{"queue_occupancy", "events_processed", "dram_bytes"}

// runTimeline renders the sampled series of the shared PR-Delta run on the
// LJ-class workload (telemetry is on for it) as time charts. With Options.TelemetryPath
// set it also writes <path>.csv and <path>.trace.json (Chrome trace_event,
// loadable in chrome://tracing and Perfetto) — see EXPERIMENTS.md
// "Time-resolved figures".
func runTimeline(opt Options, in *shared) error {
	w, res, err := in.ljRun(opt)
	if err != nil {
		return err
	}
	rec := res.Telemetry
	fmt.Fprintf(opt.Out, "Timeline — %s on %s-class graph (%s tier): %d series × %d samples, %d-cycle interval\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier, len(rec.Series()), rec.SampleCount(), rec.Interval())

	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "series\tcomponent\tunit\tkind\tpeak\tlast")
	for _, s := range rec.Series() {
		var peak, last int64
		for _, p := range s.Samples {
			if p.Value > peak {
				peak = p.Value
			}
			last = p.Value
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\n", s.Name, s.Component, s.Unit, s.Kind, peak, last)
	}
	tw.Flush()

	for _, name := range timelineSeries {
		s, ok := rec.Find(name)
		if !ok {
			return fmt.Errorf("bench: telemetry series %q missing", name)
		}
		seriesChart(opt.Out, fmt.Sprintf("\n%s over time (%s, per %d-cycle sample)", name, s.Unit, rec.Interval()),
			len(s.Samples), []string{name}, func(_, i int) float64 { return float64(s.Samples[i].Value) }, 72)
	}

	if opt.TelemetryPath != "" {
		csvPath, tracePath, err := rec.WriteFiles(opt.TelemetryPath, core.OptimizedConfig().ClockHz)
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.Out, "\ntelemetry written: %s, %s\n", csvPath, tracePath)
	}
	return nil
}
