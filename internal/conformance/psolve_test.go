package conformance

import (
	"fmt"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
)

// TestPSolveMatchesSolveMatrix is the parallel-solver acceptance gate:
// every registered shape × every registered algorithm, psolve against the
// serial golden model under the repository tolerance policy — exact
// (tolerance zero) for the monotone algorithms, threshold-residue band for
// the sum-based ones. CI runs this suite under -race at GOMAXPROCS 1, 2,
// and 8.
func TestPSolveMatchesSolveMatrix(t *testing.T) {
	for _, shape := range Shapes() {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			t.Parallel()
			g, err := shape.Build(int64(len(shape.Name)) * 6151)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range Algorithms() {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					t.Parallel()
					prepared := c.Prepared(g)
					root := graph.BestRoot(prepared)
					mk := c.Maker(root)
					want := algorithms.Solve(prepared, mk()).Values
					tol := Tolerance(mk(), prepared)
					e := EnginePSolve(PSolveConfig())
					got, err := e.Run(prepared, mk)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s vs solve on %s/%s", e.Name, shape.Name, c.Name)
					if err := CompareValues(label, got, want, tol); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}

// TestPSolveWorkerCountInvariance sweeps the shard count across every
// shape for a representative monotone and a representative sum-based
// algorithm: the worker count is a scheduling knob and must never change
// the fixed point.
func TestPSolveWorkerCountInvariance(t *testing.T) {
	for _, shape := range Shapes() {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			t.Parallel()
			g, err := shape.Build(int64(len(shape.Name)) * 3571)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"sssp", "pagerank-delta"} {
				c, err := AlgCaseByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyWorkerCountInvariance(g, c, nil); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
