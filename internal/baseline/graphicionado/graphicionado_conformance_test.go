// External test package: Graphicionado's oracle-agreement tests go through
// the shared differential harness (internal/conformance imports this
// package, so the harness cannot be used from package graphicionado
// itself).
package graphicionado_test

import (
	"testing"

	"graphpulse/internal/baseline/graphicionado"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
)

// TestGraphicionadoMatchesOracle checks the BSP pipeline model against the
// reference oracles for the full conformance algorithm set, under the single
// repository-wide tolerance policy (conformance.Tolerance).
func TestGraphicionadoMatchesOracle(t *testing.T) {
	g, err := gen.RMAT(gen.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05, Scale: 10, EdgeFactor: 8,
		Weighted: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := conformance.EngineGraphicionado(graphicionado.DefaultConfig())
	for _, c := range conformance.Algorithms() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			prepared := c.Prepared(g)
			if err := conformance.VerifyEngine(engine, prepared, c.Maker(graph.BestRoot(prepared))); err != nil {
				t.Error(err)
			}
		})
	}
}
