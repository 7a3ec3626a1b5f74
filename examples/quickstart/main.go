// Quickstart: generate a small power-law graph, run PageRank-Delta on the
// simulated GraphPulse accelerator, and compare against the reference
// solver and the software baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"graphpulse"
)

func main() {
	// A LiveJournal-flavored R-MAT graph: 16k vertices, 196k edges.
	g, err := graphpulse.GenerateRMAT(graphpulse.RMATParams{
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Scale: 14, EdgeFactor: 12, Weighted: true, Seed: 42, NoiseAmount: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// 1. Run on the simulated accelerator (the paper's optimized design).
	res, err := graphpulse.Run(graphpulse.OptimizedConfig(), g, graphpulse.NewPageRankDelta())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accelerator: converged in %d cycles = %.3f ms at 1 GHz (%d rounds)\n",
		res.Cycles, res.Seconds*1e3, res.Rounds)
	fmt.Printf("             %d events processed, %.1f%% of arrivals coalesced in-queue\n",
		res.EventsProcessed,
		100*float64(res.EventsCoalesced)/float64(res.EventsEmitted+int64(g.NumVertices())))

	// 2. Same computation on the host software baseline, on one thread so
	// its floating-point accumulation order, and so its iteration count,
	// repeat exactly (cmd/bench -exp fig10 prices it on the paper's host).
	ligCfg := graphpulse.DefaultLigraConfig()
	ligCfg.Threads = 1
	lig := graphpulse.RunLigra(ligCfg, g, graphpulse.NewPageRankDelta())
	fmt.Printf("software:    %d BSP iterations\n", lig.Iterations)

	// 3. Verify both against the reference worklist solver.
	ref := graphpulse.Solve(g, graphpulse.NewPageRankDelta())
	worst := 0.0
	for v := range ref.Values {
		if d := math.Abs(res.Values[v] - ref.Values[v]); d > worst {
			worst = d
		}
	}
	fmt.Printf("verification: max |accelerator - reference| = %.2e\n", worst)
}
