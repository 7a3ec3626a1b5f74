package core

import (
	"reflect"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim/telemetry"
)

func telemetryTestGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTelemetryDoesNotPerturbSimulation is the determinism guarantee the
// conformance suite relies on: a telemetry-enabled run must produce
// bit-identical values, cycles, and round log as a telemetry-off run —
// probes only read state — and repeated enabled runs must sample identical
// series.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	g := telemetryTestGraph(t)
	plainCfg := OptimizedConfig()
	telCfg := OptimizedConfig()
	telCfg.Telemetry = telemetry.Config{Interval: 64, MaxSamples: 256}

	plain := run(t, plainCfg, g, algorithms.NewPageRankDelta())
	withTel := run(t, telCfg, g, algorithms.NewPageRankDelta())
	if plain.Cycles != withTel.Cycles {
		t.Fatalf("cycles diverge with telemetry on: %d vs %d", plain.Cycles, withTel.Cycles)
	}
	if !reflect.DeepEqual(plain.Values, withTel.Values) {
		t.Fatal("values diverge with telemetry on")
	}
	if !reflect.DeepEqual(plain.RoundLog, withTel.RoundLog) {
		t.Fatal("round log diverges with telemetry on")
	}
	if withTel.Telemetry == nil || withTel.Telemetry.SampleCount() == 0 {
		t.Fatal("telemetry-enabled run recorded nothing")
	}

	again := run(t, telCfg, g, algorithms.NewPageRankDelta())
	if !reflect.DeepEqual(withTel.Telemetry.Series(), again.Telemetry.Series()) {
		t.Fatal("telemetry series are not bit-deterministic across runs")
	}
}

// TestTelemetryRateSeriesSumToCounters checks the rate probes account for
// every event exactly: per-interval deltas must sum back to the end-of-run
// counters (the last samples may cover a partial tail, so compare against
// the series' own total only when the run ended on a sample).
func TestTelemetryRateSeriesSumToCounters(t *testing.T) {
	g := telemetryTestGraph(t)
	cfg := OptimizedConfig()
	// Interval 1 with a huge bound: every cycle sampled, nothing decimated,
	// so series totals must equal the result counters exactly.
	cfg.Telemetry = telemetry.Config{Interval: 1, MaxSamples: 1 << 30}
	res := run(t, cfg, g, algorithms.NewPageRankDelta())

	sum := func(name string) int64 {
		s, ok := res.Telemetry.Find(name)
		if !ok {
			t.Fatalf("series %q missing", name)
		}
		var n int64
		for _, p := range s.Samples {
			n += p.Value
		}
		return n
	}
	if got := sum("events_processed"); got != res.EventsProcessed {
		t.Errorf("events_processed series sums to %d, counter %d", got, res.EventsProcessed)
	}
	if got := sum("events_emitted"); got != res.EventsEmitted {
		t.Errorf("events_emitted series sums to %d, counter %d", got, res.EventsEmitted)
	}
	if got := sum("events_coalesced"); got != res.EventsCoalesced {
		t.Errorf("events_coalesced series sums to %d, counter %d", got, res.EventsCoalesced)
	}
	if got := sum("dram_bytes"); got != res.BytesMoved {
		t.Errorf("dram_bytes series sums to %d, BytesMoved %d", got, res.BytesMoved)
	}
}

// TestDisabledTelemetryIsNilAndAllocationFree: a default config leaves
// Result.Telemetry nil, and the disabled (nil-recorder) probe path is
// allocation-free per testing.AllocsPerRun.
func TestDisabledTelemetryIsNilAndAllocationFree(t *testing.T) {
	g := telemetryTestGraph(t)
	res := run(t, OptimizedConfig(), g, algorithms.NewPageRankDelta())
	if res.Telemetry != nil {
		t.Fatal("disabled telemetry must leave Result.Telemetry nil")
	}

	var rec *telemetry.Recorder
	a := &Accelerator{}
	if allocs := testing.AllocsPerRun(1000, func() {
		// The full disabled fast path: registration no-ops and ticks.
		a.registerTelemetry(rec)
		rec.Tick(99)
	}); allocs != 0 {
		t.Fatalf("disabled telemetry path allocates %.1f/op, want 0", allocs)
	}
}

// benchmarkAccel measures a full accelerator run under the given telemetry
// configuration. Compare BenchmarkAccelDisabledTelemetry against
// BenchmarkAccelEnabledTelemetry with benchstat: the disabled case IS the
// no-telemetry baseline (New registers nothing when Config.Telemetry is
// zero), so its overhead versus pre-telemetry builds is ≤ the noise floor,
// and the enabled-case delta prices the sampling itself.
func benchmarkAccel(b *testing.B, telCfg telemetry.Config) {
	g := telemetryTestGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := OptimizedConfig()
		cfg.Telemetry = telCfg
		a, err := New(cfg, g, algorithms.NewPageRankDelta())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccelDisabledTelemetry(b *testing.B) {
	benchmarkAccel(b, telemetry.Config{})
}

func BenchmarkAccelEnabledTelemetry(b *testing.B) {
	benchmarkAccel(b, telemetry.Default())
}
