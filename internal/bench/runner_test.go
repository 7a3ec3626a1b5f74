package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/sim"
)

// sweepOptions is the options fixture of the sweep-runner tests.
func sweepOptions() Options {
	return Options{Tier: gen.Tiny}
}

// chainWorkloads is the sweep-runner fixture: two short chains × {pr, bfs},
// four cells of a few thousand simulated cycles each (every engine runs past
// the first context poll at cycle 1024). The pool, manifest, resume and
// isolation logic under test does not depend on what a cell simulates, so
// these stand in for Table IV cells.
func chainWorkloads(t *testing.T) []*Workload {
	t.Helper()
	var ws []*Workload
	for _, n := range []int{48, 64} {
		g, err := gen.Chain(n, true)
		if err != nil {
			t.Fatal(err)
		}
		spec := gen.DatasetSpec{Abbrev: fmt.Sprintf("C%d", n)}
		for _, name := range []string{"pr", "bfs"} {
			ws = append(ws, &Workload{Dataset: spec, AlgName: name, Graph: g,
				makeAlg: func() algorithms.Algorithm {
					alg, _ := algorithms.ByName(name, 0)
					return alg
				}})
		}
	}
	return ws
}

// renderSweepTables renders every sweep-consuming experiment into one
// buffer.
func renderSweepTables(t *testing.T, opt Options, sw *Sweep) string {
	t.Helper()
	var buf bytes.Buffer
	opt.Out = &buf
	for _, id := range []string{"fig10", "fig11", "fig12", "fig13", "fig14", "energy"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(opt, &shared{sweep: sw}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	return buf.String()
}

// TestParallelSweepMatchesSerial is the determinism check, so it runs a
// real Table IV cell rather than the chain fixture.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial := Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: []string{"pr"}, Parallel: 1}
	par := serial
	par.Parallel = runtime.GOMAXPROCS(0)
	if par.Parallel < 2 {
		par.Parallel = 4 // still exercise the pool on a 1-CPU host
	}

	sw1, err := RunSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	swN, err := RunSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw1.Cells) != len(swN.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(sw1.Cells), len(swN.Cells))
	}
	for i, a := range sw1.Cells {
		b := swN.Cells[i]
		if a.Workload.Dataset.Abbrev != b.Workload.Dataset.Abbrev || a.Workload.AlgName != b.Workload.AlgName {
			t.Fatalf("cell %d order differs: %s/%s vs %s/%s", i,
				a.Workload.Dataset.Abbrev, a.Workload.AlgName,
				b.Workload.Dataset.Abbrev, b.Workload.AlgName)
		}
		if a.Failed() || b.Failed() {
			t.Fatalf("cell %d failed: %q / %q", i, a.FailureReason(), b.FailureReason())
		}
		if a.Opt.Cycles != b.Opt.Cycles || a.Base.Cycles != b.Base.Cycles || a.Gion.Cycles != b.Gion.Cycles {
			t.Errorf("cell %d cycles differ: opt %d/%d base %d/%d gion %d/%d", i,
				a.Opt.Cycles, b.Opt.Cycles, a.Base.Cycles, b.Base.Cycles, a.Gion.Cycles, b.Gion.Cycles)
		}
		if a.Opt.EventsProcessed != b.Opt.EventsProcessed || a.Opt.EventsCoalesced != b.Opt.EventsCoalesced {
			t.Errorf("cell %d event counts differ: %d/%d processed, %d/%d coalesced", i,
				a.Opt.EventsProcessed, b.Opt.EventsProcessed,
				a.Opt.EventsCoalesced, b.Opt.EventsCoalesced)
		}
		if a.LigraModelSeconds != b.LigraModelSeconds {
			t.Errorf("cell %d model seconds differ: %g vs %g", i, a.LigraModelSeconds, b.LigraModelSeconds)
		}
	}

	// The rendered tables — the sweep's user-facing artifact — must be
	// byte-identical.
	out1 := renderSweepTables(t, serial, sw1)
	outN := renderSweepTables(t, par, swN)
	if out1 != outN {
		t.Errorf("rendered tables differ between parallel=1 and parallel=%d:\n--- serial ---\n%s\n--- parallel ---\n%s",
			par.Parallel, out1, outN)
	}

	// CSV export must agree too.
	var csv1, csvN bytes.Buffer
	if err := sw1.WriteCSV(&csv1); err != nil {
		t.Fatal(err)
	}
	if err := swN.WriteCSV(&csvN); err != nil {
		t.Fatal(err)
	}
	if csv1.String() != csvN.String() {
		t.Error("CSV output differs between parallel=1 and parallel=N")
	}
}

func TestSweepFailureIsolation(t *testing.T) {
	opt := sweepOptions()
	ws := chainWorkloads(t)
	// Choke one cell's deadline so every simulated engine hits
	// sim.ErrDeadline; the rest of the sweep must be unaffected.
	const doomed = 1
	ws[doomed].MaxCycles = 10

	sw, err := runSweep(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != len(ws) {
		t.Fatalf("sweep has %d cells, want %d", len(sw.Cells), len(ws))
	}
	bad := sw.Cells[doomed]
	if !bad.Failed() {
		t.Fatal("choked cell did not fail")
	}
	if !errors.Is(bad.OptErr, sim.ErrDeadline) {
		t.Errorf("OptErr = %v, want sim.ErrDeadline", bad.OptErr)
	}
	if !strings.Contains(bad.FailureReason(), "deadline") {
		t.Errorf("FailureReason = %q, want mention of deadline", bad.FailureReason())
	}
	for i, c := range sw.Cells {
		if i == doomed {
			continue
		}
		if c.Failed() {
			t.Errorf("cell %d failed collaterally: %s", i, c.FailureReason())
		}
		if c.Opt == nil || c.Base == nil || c.Gion == nil {
			t.Errorf("cell %d missing engine results", i)
		}
	}

	// Rendering completes, marks the failure, and keeps the good rows.
	out := renderSweepTables(t, opt, sw)
	if !strings.Contains(out, "FAILED:") {
		t.Error("rendered tables do not mark the failed cell")
	}
	if !strings.Contains(out, "geomean") {
		t.Error("rendered tables lost their summary rows")
	}

	// CSV keeps one row per cell with the failure in the status column.
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(ws)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(ws)+1)
	}
	if !strings.Contains(lines[doomed+1], "FAILED") {
		t.Errorf("CSV row for failed cell = %q, want FAILED status", lines[doomed+1])
	}
}

func TestSweepPanicIsolation(t *testing.T) {
	ws := chainWorkloads(t)
	ws[0].makeAlg = func() algorithms.Algorithm { panic("boom") }

	sw, err := runSweep(ws, sweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := sw.Cells[0]
	if !bad.Failed() {
		t.Fatal("panicking cell did not fail")
	}
	// The panic fires in every engine job, Ligra's included — all must be
	// recovered into structured failures.
	for _, engine := range EngineNames {
		err := bad.engineErr(engine)
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s error = %v, want recovered panic", engine, err)
		}
	}
	for i, c := range sw.Cells[1:] {
		if c.Failed() {
			t.Errorf("cell %d failed collaterally: %s", i+1, c.FailureReason())
		}
	}
}

func TestRunExperimentsSurvivesFailedCell(t *testing.T) {
	// End-to-end: a sweep-consuming experiment renders (rather than
	// aborts) when a cell dies. MaxCycles applies sweep-wide here, so
	// every cell fails — the run must still complete every section.
	opt := Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: []string{"bfs"}, MaxCycles: 10}
	var buf bytes.Buffer
	opt.Out = &buf
	if err := RunExperiments([]string{"fig10", "fig11"}, opt); err != nil {
		t.Fatalf("RunExperiments aborted on failed cell: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"1 of 1 cells FAILED", "==== fig10", "==== fig11", "FAILED:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestProgressLines(t *testing.T) {
	opt := sweepOptions()
	opt.Parallel = 1
	var prog bytes.Buffer
	opt.Progress = &prog
	sw, err := runSweep(chainWorkloads(t)[1:2], opt)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sw.Cells) * len(EngineNames)
	lines := strings.Split(strings.TrimSpace(prog.String()), "\n")
	if len(lines) != want {
		t.Fatalf("progress printed %d lines, want %d:\n%s", len(lines), want, prog.String())
	}
	if !strings.Contains(lines[0], "[1/4] C48/bfs ligra") {
		t.Errorf("first progress line = %q, want the ligra job first (queue order at Parallel=1)", lines[0])
	}
	for _, l := range lines {
		if !strings.Contains(l, "ok") {
			t.Errorf("progress line %q missing status", l)
		}
	}
}

func TestWriteSweepCSVBadPath(t *testing.T) {
	dir := t.TempDir()
	// The target is a directory: Create fails and the error names the csv.
	if err := writeSweepCSV(dir, &Sweep{Tier: gen.Tiny}); err == nil {
		t.Fatal("writing CSV over a directory succeeded")
	} else if !strings.Contains(err.Error(), "csv") {
		t.Errorf("error %v does not mention csv", err)
	}
}

// TestSweepJobTimeout: a per-job wall-clock budget must fail the job with a
// cancellation error and leave the rest of the sweep intact.
func TestSweepJobTimeout(t *testing.T) {
	opt := sweepOptions()
	opt.Timeout = time.Nanosecond // every simulated job blows the budget
	sw, err := runSweep(chainWorkloads(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sw.Cells {
		for _, eng := range []string{"opt", "base", "gion"} {
			err := c.engineErr(eng)
			if err == nil {
				t.Fatalf("%s/%s %s survived a 1ns budget", c.Workload.Dataset.Abbrev, c.Workload.AlgName, eng)
			}
			if !errors.Is(err, sim.ErrCanceled) {
				t.Errorf("%s error = %v, want wrapping sim.ErrCanceled", eng, err)
			}
		}
	}
}
