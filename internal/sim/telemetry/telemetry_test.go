package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpulse/internal/sim"
)

// The Recorder must be registrable on the simulation engine.
var _ sim.Component = (*Recorder)(nil)

func TestDisabledConfigReturnsNil(t *testing.T) {
	if r := New(Config{}); r != nil {
		t.Fatalf("New(zero Config) = %v, want nil", r)
	}
	if !Default().Enabled() {
		t.Fatal("Default() must be enabled")
	}
}

func TestSamplingGaugeAndRate(t *testing.T) {
	r := New(Config{Interval: 10, MaxSamples: 1 << 20})
	level := int64(0)
	total := int64(0)
	r.Gauge("comp", "level", "units", func() int64 { return level })
	r.Rate("comp", "total", "units", func() int64 { return total })
	for c := uint64(0); c < 35; c++ {
		level = int64(c) * 2
		total += 3
		r.Tick(c)
	}
	ss := r.Series()
	if len(ss) != 2 {
		t.Fatalf("series = %d, want 2", len(ss))
	}
	g, rt := ss[0], ss[1]
	wantCycles := []uint64{0, 10, 20, 30}
	if len(g.Samples) != len(wantCycles) {
		t.Fatalf("gauge samples = %d, want %d", len(g.Samples), len(wantCycles))
	}
	for i, c := range wantCycles {
		if g.Samples[i].Cycle != c {
			t.Errorf("sample %d at cycle %d, want %d", i, g.Samples[i].Cycle, c)
		}
		if g.Samples[i].Value != int64(c)*2 {
			t.Errorf("gauge[%d] = %d, want %d", i, g.Samples[i].Value, c*2)
		}
	}
	// Rate deltas: 3 counts per tick → first sample covers 1 tick, then 10.
	wantRate := []int64{3, 30, 30, 30}
	for i, w := range wantRate {
		if rt.Samples[i].Value != w {
			t.Errorf("rate[%d] = %d, want %d", i, rt.Samples[i].Value, w)
		}
	}
}

func TestDecimationBoundsMemoryAndPreservesRateTotals(t *testing.T) {
	r := New(Config{Interval: 1, MaxSamples: 16})
	total := int64(0)
	r.Rate("comp", "total", "units", func() int64 { return total })
	r.Gauge("comp", "level", "units", func() int64 { return total })
	for c := uint64(0); c < 10_000; c++ {
		total += 2
		r.Tick(c)
	}
	if n := r.SampleCount(); n >= 16 {
		t.Fatalf("samples = %d, want < MaxSamples", n)
	}
	if r.Interval() <= 1 {
		t.Fatalf("interval = %d, want doubled by decimation", r.Interval())
	}
	rt, ok := r.Find("total")
	if !ok {
		t.Fatal("rate series missing")
	}
	var sum int64
	var lastCycle uint64
	for _, s := range rt.Samples {
		sum += s.Value
		lastCycle = s.Cycle
	}
	// Every delta up to the last retained stamp must be accounted for
	// exactly: decimation sums pairs, it never drops.
	if want := int64(lastCycle+1) * 2; sum != want {
		t.Fatalf("rate total = %d, want %d", sum, want)
	}
}

func TestLateRegistrationBackfills(t *testing.T) {
	r := New(Config{Interval: 1, MaxSamples: 64})
	r.Tick(0)
	r.Tick(1)
	r.Gauge("comp", "late", "units", func() int64 { return 7 })
	r.Tick(2)
	s, ok := r.Find("late")
	if !ok {
		t.Fatal("late series missing")
	}
	want := []int64{0, 0, 7}
	if len(s.Samples) != len(want) {
		t.Fatalf("samples = %d, want %d", len(s.Samples), len(want))
	}
	for i, w := range want {
		if s.Samples[i].Value != w {
			t.Errorf("late[%d] = %d, want %d", i, s.Samples[i].Value, w)
		}
	}
}

func TestNilRecorderIsNoOpAndAllocationFree(t *testing.T) {
	var r *Recorder
	r.Gauge("c", "n", "u", func() int64 { return 1 })
	r.Rate("c", "n", "u", func() int64 { return 1 })
	r.Tick(0)
	if r.Series() != nil || r.SampleCount() != 0 || r.Interval() != 0 {
		t.Fatal("nil recorder must report empty state")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Tick(42)
	}); allocs != 0 {
		t.Fatalf("nil recorder Tick allocates %.1f/op, want 0", allocs)
	}
}

func TestEnabledOffCycleTickAllocationFree(t *testing.T) {
	r := New(Config{Interval: 1 << 30, MaxSamples: 64})
	r.Gauge("c", "n", "u", func() int64 { return 1 })
	r.Tick(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Tick(1) // before the next interval boundary: compare-and-return
	}); allocs != 0 {
		t.Fatalf("off-cycle Tick allocates %.1f/op, want 0", allocs)
	}
}

func TestWriteCSV(t *testing.T) {
	r := New(Config{Interval: 5, MaxSamples: 64})
	v := int64(0)
	r.Gauge("queue", "queue_occupancy", "events", func() int64 { return v })
	for c := uint64(0); c < 11; c++ {
		v = int64(c)
		r.Tick(c)
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "cycle,component,series,unit,kind,value\n" +
		"0,queue,queue_occupancy,events,gauge,0\n" +
		"5,queue,queue_occupancy,events,gauge,5\n" +
		"10,queue,queue_occupancy,events,gauge,10\n"
	if buf.String() != want {
		t.Fatalf("CSV mismatch:\n got: %q\nwant: %q", buf.String(), want)
	}

	var nilRec *Recorder
	buf.Reset()
	if err := nilRec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "cycle,") {
		t.Fatalf("nil recorder CSV = %q, want header", buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New(Config{Interval: 1000, MaxSamples: 64})
	v := int64(0)
	r.Gauge("queue", "queue_occupancy", "events", func() int64 { return v })
	r.Rate("memory", "dram_bytes", "bytes", func() int64 { return v * 64 })
	for c := uint64(0); c < 3000; c++ {
		v = int64(c)
		r.Tick(c)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf, 1e9); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	meta, counters := 0, 0
	pids := map[int]string{}
	for _, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "M":
			meta++
			pids[ev.PID] = ev.Args["name"].(string)
		case "C":
			counters++
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if meta != 2 {
		t.Fatalf("process_name events = %d, want one per component", meta)
	}
	if counters != 2*3 {
		t.Fatalf("counter events = %d, want 6", counters)
	}
	// Sample at cycle 2000 (1 GHz) must land at ts = 2 µs.
	for _, ev := range tf.TraceEvents {
		if ev.Phase == "C" && pids[ev.PID] == "queue" && ev.TS == 2.0 {
			return
		}
	}
	t.Fatal("no queue counter event at ts=2µs")
}

// TestWriteFilesPairOrNothing: the CSV/trace pair every -telemetry flag
// writes lands together, and a failed trace write takes the CSV with it —
// cmd/graphpulse used to leave the orphan behind.
func TestWriteFilesPairOrNothing(t *testing.T) {
	r := New(Config{Interval: 5, MaxSamples: 64})
	r.Gauge("queue", "queue_occupancy", "events", func() int64 { return 3 })
	r.Tick(0)

	prefix := filepath.Join(t.TempDir(), "run")
	csvPath, tracePath, err := r.WriteFiles(prefix, 1e9)
	if err != nil || csvPath != prefix+".csv" || tracePath != prefix+".trace.json" {
		t.Fatalf("WriteFiles = %q, %q, %v", csvPath, tracePath, err)
	}
	for _, p := range []string{csvPath, tracePath} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s missing or empty: %v", p, err)
		}
	}

	// A directory squatting on the trace path makes its rename fail after
	// the CSV is already in place.
	blocked := filepath.Join(t.TempDir(), "run")
	if err := os.MkdirAll(filepath.Join(blocked+".trace.json", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.WriteFiles(blocked, 1e9); err == nil {
		t.Fatal("WriteFiles succeeded with the trace path blocked")
	}
	if _, err := os.Stat(blocked + ".csv"); !os.IsNotExist(err) {
		t.Errorf("orphan CSV left behind after a failed trace write (stat err: %v)", err)
	}
}
