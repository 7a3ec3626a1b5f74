// External test package: ligra's oracle-agreement tests go through the
// shared differential harness (internal/conformance imports this package,
// so the harness cannot be used from package ligra itself).
package ligra_test

import (
	"testing"

	"graphpulse/internal/baseline/ligra"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// TestLigraMatchesOracle checks every traversal direction against the
// reference oracles for the full conformance algorithm set, under the single
// repository-wide tolerance policy (conformance.Tolerance).
func TestLigraMatchesOracle(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []ligra.Direction{ligra.Auto, ligra.PushOnly, ligra.PullOnly} {
		dir := dir
		cfg := conformance.LigraConfig()
		cfg.Direction = dir
		engine := conformance.EngineLigra(cfg)
		for _, c := range conformance.Algorithms() {
			c := c
			t.Run(engineDirName(dir)+"/"+c.Name, func(t *testing.T) {
				t.Parallel()
				prepared := c.Prepared(g)
				if err := conformance.VerifyEngine(engine, prepared, c.Maker(graph.BestRoot(prepared))); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func engineDirName(dir ligra.Direction) string {
	switch dir {
	case ligra.PushOnly:
		return "push"
	case ligra.PullOnly:
		return "pull"
	default:
		return "auto"
	}
}
