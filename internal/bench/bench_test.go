package bench

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// smallOptions restricts experiments to one small workload so the test
// suite exercises every experiment path quickly.
func smallOptions(buf *bytes.Buffer) Options {
	return Options{
		Tier:       gen.Tiny,
		Datasets:   []string{"WG"},
		Algorithms: []string{"bfs"},
		Out:        buf,
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{"table1", "table2", "table3", "table4", "fig4", "fig8",
		"fig10", "fig11", "fig12", "fig13", "fig14", "table5", "energy", "slicing",
		"ablation", "timeline"}
	if len(exps) != len(wantIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
	}
	if _, err := ExperimentByID("fig10"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestImportBoundary pins the split between this package and perf/: the
// paper reproducer's non-test files import only the simulated engines and
// their substrate, never the native-solver, storage or serving tiers whose
// wall-clock numbers the frozen benchmark driver owns.
func TestImportBoundary(t *testing.T) {
	banned := map[string]bool{}
	for _, pkg := range []string{"psolve", "serve", "dserve", "graph/ooc", "stream"} {
		banned["graphpulse/internal/"+pkg] = true
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

func TestWorkloadsMatrix(t *testing.T) {
	ws, err := Workloads(Options{Tier: gen.Tiny})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 25 {
		t.Fatalf("workloads = %d, want 5×5", len(ws))
	}
	// TW cells are marked for 3-slice execution.
	for _, w := range ws {
		if w.Dataset.Abbrev == "TW" && w.sliceInto != 3 {
			t.Errorf("TW workload sliceInto = %d, want 3", w.sliceInto)
		}
		if w.NewAlgorithm() == nil {
			t.Errorf("%s/%s: nil algorithm", w.Dataset.Abbrev, w.AlgName)
		}
	}
}

func TestWorkloadFilters(t *testing.T) {
	ws, err := Workloads(Options{Tier: gen.Tiny, Datasets: []string{"lj"}, Algorithms: []string{"pr", "cc"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("filtered workloads = %d, want 2", len(ws))
	}
	if _, err := Workloads(Options{Datasets: []string{"XX"}}); err == nil {
		t.Error("unknown dataset accepted")
	}
	_, err = Workloads(Options{Algorithms: []string{"zz"}})
	if err == nil || !strings.Contains(err.Error(), algorithms.NamesList()) {
		t.Errorf("unknown algorithm error = %v, want one listing %s", err, algorithms.NamesList())
	}
	// -algs takes the whole registry vocabulary, not only the five Figure 10
	// applications; each cell builds the named algorithm.
	ws, err = Workloads(Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: algorithms.Names()})
	if err != nil || len(ws) != len(algorithms.Names()) {
		t.Fatalf("registry-wide filter: %d workloads, %v", len(ws), err)
	}
	for i, name := range algorithms.Names() {
		want, _ := algorithms.ByName(name, ws[i].Root)
		if got := ws[i].NewAlgorithm().Name(); got != want.Name() {
			t.Errorf("workload %s builds %s, want %s", name, got, want.Name())
		}
	}
}

func TestRunWorkloadProducesAllEngines(t *testing.T) {
	sw, err := RunSweep(Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: []string{"bfs"}})
	if err != nil {
		t.Fatal(err)
	}
	cell := sw.Cells[0]
	if cell.Failed() {
		t.Fatal(cell.FailureReason())
	}
	if cell.Opt == nil || cell.Base == nil || cell.Gion == nil {
		t.Fatal("missing engine results")
	}
	if cell.LigraModelSeconds <= 0 || cell.LigraIters <= 0 {
		t.Errorf("Ligra model %g s over %d iterations, want both positive", cell.LigraModelSeconds, cell.LigraIters)
	}
	if cell.OptModelSpeedup() <= 0 || cell.BaseModelSpeedup() <= 0 || cell.GionModelSpeedup() <= 0 {
		t.Error("non-positive speedups")
	}
	// All engines agree on the answer.
	for v := range cell.Opt.Values {
		if cell.Opt.Values[v] != cell.Base.Values[v] || cell.Opt.Values[v] != cell.Gion.Values[v] {
			t.Fatalf("engines disagree at vertex %d: %g / %g / %g",
				v, cell.Opt.Values[v], cell.Base.Values[v], cell.Gion.Values[v])
		}
	}
}

func TestRunAllExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment pass is not short")
	}
	var buf bytes.Buffer
	if err := RunExperiments(nil, smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range Experiments() {
		if !strings.Contains(out, "==== "+e.ID) {
			t.Errorf("output missing section %s", e.ID)
		}
	}
}

func TestRunSelectedExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiments([]string{"table5"}, smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Queue") {
		t.Error("table5 output missing Queue row")
	}
	if err := RunExperiments([]string{"bogus"}, smallOptions(&buf)); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean(2,8) = %g, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %g, want 0", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Errorf("geomean with zero = %g, want 0", g)
	}
}

func TestWorkloadsShareCachedGraphs(t *testing.T) {
	opt := Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: []string{"pr", "ads"}}
	a, err := Workloads(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Workloads(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Graphs come from the shared gen cache: repeated preparation reuses
	// the same instances instead of regenerating.
	if a[0].Graph != b[0].Graph {
		t.Error("base graph regenerated across Workloads calls")
	}
	if a[1].Graph != b[1].Graph {
		t.Error("normalized Adsorption graph regenerated across Workloads calls")
	}
	if a[1].Graph == a[0].Graph {
		t.Error("Adsorption workload shares the unnormalized graph")
	}
	if a[0].Root != b[0].Root {
		t.Errorf("cached roots differ: %d vs %d", a[0].Root, b[0].Root)
	}
}

func TestBestRoot(t *testing.T) {
	ws, err := Workloads(Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: []string{"bfs"}})
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	if got, want := w.Graph.OutDegree(w.Root), graph.ComputeStats(w.Graph).MaxOutDegree; got != want {
		t.Errorf("root degree = %d, want max %d", got, want)
	}
}
