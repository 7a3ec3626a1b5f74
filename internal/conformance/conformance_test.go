package conformance

import (
	"sync"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/core"
	"graphpulse/internal/graph"
)

// TestEngineAgreementMatrix is the headline suite: every registered shape ×
// every registered algorithm, through all five engines (reference oracle,
// worklist solver, accelerator, Graphicionado, Ligra), with the event-
// conservation and algebraic-law invariants applied along the way.
func TestEngineAgreementMatrix(t *testing.T) {
	for _, shape := range Shapes() {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			t.Parallel()
			g, err := shape.Build(int64(len(shape.Name)) * 7919)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range Algorithms() {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					t.Parallel()
					prepared := c.Prepared(g)
					if err := Verify(prepared, c.Maker(graph.BestRoot(prepared)), Options{}); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestAcceleratorDeterminism requires bit-identical results — values, cycle
// count, event and memory counters — across repeated runs of the same
// build, for both the optimized and baseline configurations.
func TestAcceleratorDeterminism(t *testing.T) {
	g, err := Shapes()[0].Build(11)
	if err != nil {
		t.Fatal(err)
	}
	base := core.BaselineConfig()
	base.MaxCycles = 1_000_000_000
	for _, cfg := range []core.Config{AcceleratorConfig(), base} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for _, c := range []string{"sssp", "pagerank-delta"} {
				ac, err := AlgCaseByName(c)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyDeterminism(cfg, g, ac.Maker(graph.BestRoot(g)), 3); err != nil {
					t.Errorf("%s: %v", c, err)
				}
			}
		})
	}
}

// TestAcceleratorDeterminismUnderConcurrency runs several identical
// accelerators concurrently (as the parallel sweep runner and `go test
// -parallel` do) and requires them all to produce the same bits as a run
// executed alone — shared mutable state between instances would show here
// (and under CI's -race).
func TestAcceleratorDeterminismUnderConcurrency(t *testing.T) {
	g, err := Shapes()[1].Build(13)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := AlgCaseByName("connected-components")
	if err != nil {
		t.Fatal(err)
	}
	mk := ac.Maker(graph.BestRoot(g))
	alone, err := runAccelerator(AcceleratorConfig(), g, mk())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*core.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runAccelerator(AcceleratorConfig(), g, mk())
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if err := sameResult(alone, results[i]); err != nil {
			t.Errorf("worker %d diverged from solo run: %v", i, err)
		}
	}
}

// TestConservationRejectsImbalance checks that the conservation checker
// actually detects corrupted accounting, so a future counter refactor can't
// neuter the invariant silently.
func TestConservationRejectsImbalance(t *testing.T) {
	g, err := Shapes()[3].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	ac, _ := AlgCaseByName("bfs")
	alg := ac.Maker(graph.BestRoot(g))()
	a, err := core.New(AcceleratorConfig(), g, alg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	initial := len(alg.InitialEvents(g))
	if err := CheckConservation(res, initial); err != nil {
		t.Fatalf("clean run failed conservation: %v", err)
	}
	mutations := []func(r *core.Result){
		func(r *core.Result) { r.EventsEmitted++ },
		func(r *core.Result) { r.EventsProcessed-- },
		func(r *core.Result) { r.RoundLog[0].Produced++ },
		func(r *core.Result) { r.RoundLog[len(r.RoundLog)-1].Remaining = 5 },
	}
	for i, mut := range mutations {
		broken := *res
		broken.RoundLog = append([]core.RoundStats(nil), res.RoundLog...)
		mut(&broken)
		if err := CheckConservation(&broken, initial); err == nil {
			t.Errorf("mutation %d passed conservation", i)
		}
	}
}

// TestToleranceExactForMonotone pins the tolerance policy: monotone
// algorithms must be compared exactly; sum-based algorithms must get a
// strictly positive bound that scales with the threshold.
func TestToleranceExactForMonotone(t *testing.T) {
	g, err := Shapes()[3].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Algorithms() {
		alg := c.New(0)
		tol := Tolerance(alg, g)
		switch c.Name {
		case "pagerank-delta", "adsorption":
			if tol <= 0 {
				t.Errorf("%s: tolerance %g, want > 0", c.Name, tol)
			}
		default:
			if tol != 0 {
				t.Errorf("%s: tolerance %g, want exact (0)", c.Name, tol)
			}
		}
	}
	pr := algorithms.NewPageRankDelta()
	loose := Tolerance(pr, g)
	pr.Threshold /= 10
	if tight := Tolerance(pr, g); tight >= loose {
		t.Errorf("tolerance did not tighten with threshold: %g -> %g", loose, tight)
	}
}

// TestCompareValues pins the comparator's edge cases.
func TestCompareValues(t *testing.T) {
	inf := algorithms.Infinity
	if err := CompareValues("t", []float64{1, inf, -inf}, []float64{1, inf, -inf}, 0); err != nil {
		t.Errorf("identical slices rejected: %v", err)
	}
	if err := CompareValues("t", []float64{inf}, []float64{-inf}, 0); err == nil {
		t.Error("opposite infinities accepted")
	}
	if err := CompareValues("t", []float64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := CompareValues("t", []float64{1.05}, []float64{1}, 0.1); err != nil {
		t.Errorf("in-tolerance difference rejected: %v", err)
	}
	if err := CompareValues("t", []float64{1.2}, []float64{1}, 0.1); err == nil {
		t.Error("out-of-tolerance difference accepted")
	}
}

// TestVerifyEngineReportsDivergence feeds VerifyEngine an engine that
// returns corrupted values and requires rejection — the harness must not
// vacuously pass.
func TestVerifyEngineReportsDivergence(t *testing.T) {
	g, err := Shapes()[3].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	evil := Engine{
		Name: "evil",
		Run: func(g *graph.CSR, mk func() algorithms.Algorithm) ([]float64, error) {
			vals := algorithms.Solve(g, mk()).Values
			vals[len(vals)/2] += 1
			return vals, nil
		},
	}
	ac, _ := AlgCaseByName("sssp")
	if err := VerifyEngine(evil, g, ac.Maker(0)); err == nil {
		t.Fatal("corrupted engine passed verification")
	}
}
