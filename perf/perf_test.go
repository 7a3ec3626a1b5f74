package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json and the per-layer table of README.md from the catalogue in spec.go")

// benchmarkJSON renders the catalogue in the shape of BENCHMARK.json, which
// the builder's contract fixes: these six keys and no others.
func benchmarkJSON(t *testing.T) []byte {
	type perLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layer := make([]perLayer, len(layerDefs))
	for i, d := range layerDefs {
		layer[i] = perLayer{d.Name, d.Unit, d.Better}
	}
	buf, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []endToEndDef `json:"end_to_end"`
		PerLayer   []perLayer    `json:"per_layer"`
	}{
		Command: []string{"bash", "perf/run.sh"}, Paths: []string{"perf"}, RunSeconds: runSeconds,
		Workloads: workloadDefs, EndToEnd: endToEndDefs, PerLayer: layer,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// The per-layer table of README.md lies between these two lines.
const (
	tableBegin = "<!-- per-layer table: rendered from spec.go by go test -run TestCatalogue -update -->\n"
	tableEnd   = "<!-- end of per-layer table -->\n"
)

func layerTable() string {
	var b strings.Builder
	b.WriteString("| metric | unit | better | exact | moves | on | note |\n|---|---|---|---|---|---|---|\n")
	for _, d := range layerDefs {
		exact := ""
		if d.Exact {
			exact = "exact"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, exact, d.Moves, d.On, d.Note)
	}
	return b.String()
}

// TestCatalogue keeps BENCHMARK.json and README's per-layer table equal to
// the catalogue, and the catalogue inside the limits of the builder's
// contract.
func TestCatalogue(t *testing.T) {
	benchmarkPath := filepath.Join("..", "BENCHMARK.json")
	want := benchmarkJSON(t)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	begin, end := bytes.Index(readme, []byte(tableBegin)), bytes.Index(readme, []byte(tableEnd))
	if begin < 0 || end < begin {
		t.Fatal("README.md lacks the per-layer table markers")
	}
	begin += len(tableBegin)
	if *update {
		readme = append(readme[:begin:begin], append([]byte(layerTable()), readme[end:]...)...)
		if err := os.WriteFile("README.md", readme, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(benchmarkPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	} else if string(readme[begin:end]) != layerTable() {
		t.Error("README.md's per-layer table differs from the catalogue; run: go test -run TestCatalogue -update")
	}
	got, err := os.ReadFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the catalogue; run: go test -run TestCatalogue -update")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the grammar", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	workloadNames := map[string]bool{"all": true}
	for _, w := range workloadDefs {
		name(w.Name)
		workloadNames[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	moves := map[string]bool{"failed": true}
	hasSetup := false
	for _, d := range endToEndDefs {
		name(d.Name)
		moves[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != hi && d.Better != lo) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lo)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range layerDefs {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != hi && d.Better != lo) {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
		if (d.Moves == "") != (d.On == "") || (d.Moves == "" && d.Note == "") {
			t.Errorf("%s: name the end-to-end metric and workload it moves, or note why it moves none", d.Name)
		}
		for _, m := range strings.Split(d.Moves, ", ") {
			if m != "" && !moves[m] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", d.Name, m)
			}
		}
		for _, w := range strings.Split(d.On, ", ") {
			if w != "" && !workloadNames[w] {
				t.Errorf("%s names workload %q, which does not exist", d.Name, w)
			}
		}
	}
}

// TestSpreadMatchesPython pins the quartile rule to Python's
// statistics.quantiles(v, n=4): for 1..10 it gives 2.75, 5.5, 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{10, 11, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread of three = %g, want %g", got, 2.0/11)
	}
}

// TestLatencyGate: a stall that makes every request of one slice late does
// not fail a window; the same lateness in three slices of five does, and
// then every late request counts.
func TestLatencyGate(t *testing.T) {
	const perSlice = 20
	window := func(lateSlices int) []sample {
		var samples []sample
		for i := 0; i < slices*perSlice; i++ {
			s := sample{end: time.Duration(i) * time.Second / perSlice, lat: 10 * time.Millisecond, ok: true}
			if i/perSlice < lateSlices {
				s.lat = 3 * limitCached
			}
			samples = append(samples, s)
		}
		return samples
	}
	for lateSlices, wantFailed := range map[int]int{1: 0, 2: 0, 3: 3 * perSlice} {
		c := &checks{}
		c.gate("test", window(lateSlices), slices*time.Second, limitCached)
		if c.failed != wantFailed {
			t.Errorf("%d late slices: %d requests counted as failed, want %d", lateSlices, c.failed, wantFailed)
		}
	}
}

func checkResultFile(t *testing.T, f *resultFile, minServing, minLibrary int) {
	t.Helper()
	for _, w := range workloadDefs {
		r := f.Workloads[w.Name]
		if r == nil {
			t.Errorf("workload %s missing from the result", w.Name)
			continue
		}
		if !r.Correct || r.Failed != 0 || r.FailedShare != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", w.Name, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		if len(r.EndToEnd) != len(endToEndDefs) || len(r.PerLayer) != len(layerDefs) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.Name, len(r.EndToEnd), len(r.PerLayer), len(endToEndDefs), len(layerDefs))
		}
		serving := w.Name == "cold-query" || w.Name == "cached-fleet" || w.Name == "mutate-churn"
		for _, d := range endToEndDefs {
			v, ok := r.EndToEnd[d.Name]
			if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v, want a positive finite value in %s", w.Name, d.Name, v, d.Unit)
			}
			// Requests are milliseconds each, so a median needs 30 of them;
			// library solves and simulated runs are 0.1–0.5 s of CPU-bound
			// work each and a run holds 12–50.
			least := minLibrary
			if serving {
				least = minServing
			}
			if strings.HasSuffix(d.Name, "_ms") || d.Name == "ops_per_cpu_s" {
				if v.Samples < least {
					t.Errorf("%s: %s rests on %d samples, want at least %d", w.Name, d.Name, v.Samples, least)
				}
			}
		}
		nonzero := 0
		for _, d := range layerDefs {
			v, ok := r.PerLayer[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %+v, want a finite value in %s", w.Name, d.Name, v, d.Unit)
			}
			if v.Value != 0 {
				nonzero++
			}
		}
		if nonzero < 10 {
			t.Errorf("%s: only %d per-layer metrics are non-zero", w.Name, nonzero)
		}
	}
}

// TestSmoke runs all six workloads, untraced and traced, at the smoke
// sizing and validates what they emit against the catalogue.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out, trace := filepath.Join(dir, "smoke.json"), filepath.Join(dir, "smoke.trace.json")
	if _, err := runAll(1, 0.5, true, out, trace); err != nil {
		t.Fatal(err)
	}
	f, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	checkResultFile(t, f, 1, 1)

	// A file agrees with itself; a copy with one throughput cut by a third
	// does not.
	if err := agreeFiles(out, out); err != nil {
		t.Errorf("a result file does not agree with itself: %v", err)
	}
	v := f.Workloads["ooc-solve"].EndToEnd["ops_per_cpu_s"]
	v.Value *= 0.66
	f.Workloads["ooc-solve"].EndToEnd["ops_per_cpu_s"] = v
	worse := filepath.Join(dir, "worse.json")
	buf, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(worse, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := agreeFiles(out, worse); err == nil {
		t.Error("-agree accepted a 34 % throughput loss")
	}

	// Every span has a parent in its own operation or is an operation root.
	var file struct {
		TraceEvents []struct {
			Args struct{ Op, ID, Parent int }
		}
	}
	buf, err = os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	opOf := map[int]int{}
	for _, e := range file.TraceEvents {
		opOf[e.Args.ID] = e.Args.Op
	}
	if len(opOf) != len(file.TraceEvents) || len(opOf) == 0 {
		t.Fatalf("%d spans with %d distinct ids", len(file.TraceEvents), len(opOf))
	}
	for _, e := range file.TraceEvents {
		if op, ok := opOf[e.Args.Parent]; e.Args.Parent != 0 && (!ok || op != e.Args.Op) {
			t.Errorf("span %d of operation %d has parent %d in operation %d (found %v)", e.Args.ID, e.Args.Op, e.Args.Parent, op, ok)
		}
	}
}

// TestAcceptedResults validates the committed accepted runs: the first
// seed-1 run, which is the baseline and the source of R, the second seed-1
// run of the same code, which must agree with it, and the held-out seed.
func TestAcceptedResults(t *testing.T) {
	first := filepath.Join("results", "seed1.json")
	f, err := readResult(first)
	if err != nil {
		t.Fatal(err)
	}
	checkResultFile(t, f, 30, 10)
	if f.NumCPU < 1 || f.GOMAXPROCS < 1 || f.Go == "" || f.Seed != 1 {
		t.Errorf("result file lacks its context: %+v", f)
	}
	capacity := f.Workloads["cached-fleet"].PerLayer["client.capacity_rps"].Value
	if f.FrozenRate != frozenRate || math.Abs(capacity-frozenRate) > 0.1*capacity {
		t.Errorf("R is frozen at %d requests/s; the accepted run used %g and measured a capacity of %.0f, which must lie within a tenth of R", frozenRate, f.FrozenRate, capacity)
	}
	// The issue's caps are on the untraced run.
	if f.WallS > 120 {
		t.Errorf("the untraced run took %.0f s, cap 120 s", f.WallS)
	}
	for _, w := range workloadDefs {
		r := f.Workloads[w.Name]
		if r.WallS >= 30 {
			t.Errorf("%s: the untraced run took %.1f s, cap 30 s", w.Name, r.WallS)
		}
		// A serving window whose five slices disagree by more than the bound
		// was hit by a stall or a slow stretch of the host: -agree could only
		// call the pair unresolved, so such a run is not accepted as the
		// baseline. (The library and simulator workloads store the spread of
		// their 8 to 14 passes, which says less.)
		if w.Name != "cold-query" && w.Name != "cached-fleet" && w.Name != "mutate-churn" {
			continue
		}
		for _, name := range []string{"op_p50_ms", "op2_p50_ms"} {
			if v := r.EndToEnd[name]; v.Spread > 0.25 {
				t.Errorf("%s: the slices of %s differ by %.2f in the baseline, over the bound", w.Name, name, v.Spread)
			}
		}
	}
	if err := agreeFiles(first, filepath.Join("results", "seed1b.json")); err != nil {
		t.Errorf("the two accepted seed-1 runs do not agree: %v", err)
	}
	held, err := readResult(filepath.Join("results", "seed2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if held.Seed != 2 {
		t.Errorf("results/seed2.json holds seed %d", held.Seed)
	}
	checkResultFile(t, held, 30, 10)
}
