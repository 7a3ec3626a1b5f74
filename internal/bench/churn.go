package bench

import (
	"fmt"
	"math/rand"
	"time"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/stream"
)

// Churn experiment constants: a deterministic seeded mutation schedule so
// the warm-vs-cold comparison visits every re-convergence mode (insertion
// seeding, deletion cone, window expiry) on one run.
const (
	churnEpochs = 8
	churnBatch  = 16
	churnSeed   = 1
)

// runChurn measures streaming re-convergence: a stream.Replayer (the
// serving tier's stream.Graph + stream.Restart) carries one (algorithm,
// graph) pair through seeded insert/delete/expire epochs, timing the
// warm continuation each epoch against a cold solve of the same
// post-mutation graph. The mode column is the wire vocabulary
// warm|cone|cold. Like the scaling experiment these are host
// wall-clock timings — absolute numbers vary by machine; the reproduction
// target is warm staying at or under cold, with the gap widest for
// seeded insert-only epochs and narrowest when a large deletion cone
// forces replay.
func runChurn(opt Options, _ *Sweep) error {
	o := opt
	o.Datasets = []string{"WG"}
	if len(opt.Datasets) > 0 {
		o.Datasets = opt.Datasets[:1]
	}
	o.Algorithms = []string{"pr"}
	if len(opt.Algorithms) > 0 {
		o.Algorithms = opt.Algorithms[:1]
	}
	ws, err := Workloads(o)
	if err != nil {
		return err
	}
	w := ws[0]

	solve := func(g *graph.CSR, alg algorithms.Algorithm) ([]float64, error) {
		return algorithms.Solve(g, alg).Values, nil
	}
	r := stream.NewReplayer(w.Graph, w.NewAlgorithm, solve, stream.DefaultMaxConeFraction)
	if _, err := r.State(); err != nil {
		return err
	}

	fmt.Fprintf(opt.Out, "Churn — warm vs cold re-convergence per mutation epoch, %s on %s-class graph (%s tier)\n",
		algorithmTitle[w.AlgName], w.Dataset.Abbrev, opt.Tier)
	fmt.Fprintf(opt.Out, "wall-clock host timings; %d-edge batches, seeded schedule; cone cap %.0f%% of vertices\n",
		churnBatch, 100*stream.DefaultMaxConeFraction)
	fmt.Fprintln(opt.Out, "(warm includes the incremental log→CSR rebuild; cold solves the already-built graph)")
	tw := newTable(opt.Out)
	fmt.Fprintln(tw, "epoch\tinserts\tdeletes\tmode\twarm ms\tcold ms\tspeedup")

	rng := rand.New(rand.NewSource(churnSeed))
	n := w.Graph.NumVertices()
	var pool []graph.Edge
	var warmTotal, coldTotal float64
	for epoch := 1; epoch <= churnEpochs; epoch++ {
		var ins, dels []graph.Edge
		expire := false
		switch {
		case epoch == churnEpochs:
			// Final epoch: age out everything streamed in so far.
			expire = true
		case epoch%3 == 0 && len(pool) >= churnBatch/2:
			// Every third epoch deletes half a batch of earlier inserts,
			// driving the cone path.
			dels, pool = pool[:churnBatch/2], pool[churnBatch/2:]
		default:
			for i := 0; i < churnBatch; i++ {
				ins = append(ins, graph.Edge{
					Src:    graph.VertexID(rng.Intn(n)),
					Dst:    graph.VertexID(rng.Intn(n)),
					Weight: float32(rng.Float64()*0.9 + 0.1),
				})
			}
		}

		var warmSecs float64
		var expired int
		start := time.Now()
		if expire {
			expired, err = r.Expire(time.Unix(int64(epoch)*10, 0), time.Second)
			warmSecs = time.Since(start).Seconds()
			if err != nil {
				return fmt.Errorf("bench: churn epoch %d expire: %w", epoch, err)
			}
			if expired == 0 {
				continue
			}
			dels = make([]graph.Edge, expired)
		} else {
			if err := r.Apply(ins, dels, time.Unix(int64(epoch)*10, 0)); err != nil {
				return fmt.Errorf("bench: churn epoch %d: %w", epoch, err)
			}
			warmSecs = time.Since(start).Seconds()
			pool = append(pool, ins...)
		}

		start = time.Now()
		algorithms.Solve(r.Graph(), w.NewAlgorithm())
		coldSecs := time.Since(start).Seconds()
		warmTotal += warmSecs
		coldTotal += coldSecs
		speedup := 0.0
		if warmSecs > 0 {
			speedup = coldSecs / warmSecs
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%.2fx\n",
			epoch, len(ins), len(dels), r.LastMode, warmSecs*1e3, coldSecs*1e3, speedup)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "totals: warm %.3f ms vs cold %.3f ms (modes: warm %d, cone %d, cold %d)\n",
		warmTotal*1e3, coldTotal*1e3, r.SeedStarts, r.ConeStarts, r.Replays)
	return nil
}
