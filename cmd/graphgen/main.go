// Command graphgen generates synthetic graph workloads and writes them as
// text edge lists. cmd/graphpack converts an edge list (or a Table IV
// "ABBREV:tier" stand-in directly) into the binary graphpack container.
//
// Usage:
//
//	graphgen -kind rmat -scale 16 -edgefactor 12 -weighted -o web.el
//	graphgen -kind dataset -dataset LJ -tier mini -o lj.el
//	graphgen -kind grid -width 512 -height 512 -o road.el
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"graphpulse"
	"graphpulse/internal/graph/gen"
)

func main() {
	var (
		kind     = flag.String("kind", "rmat", "generator: rmat|er|grid|dataset")
		scale    = flag.Int("scale", 14, "rmat: log2 vertex count")
		ef       = flag.Int("edgefactor", 12, "rmat: edges per vertex")
		n        = flag.Int("n", 10000, "er: vertex count")
		m        = flag.Int("m", 100000, "er: edge count")
		width    = flag.Int("width", 256, "grid: width")
		height   = flag.Int("height", 256, "grid: height")
		dataset  = flag.String("dataset", "LJ", "dataset: Table IV abbreviation")
		tierName = flag.String("tier", "mini", "dataset: "+gen.TierList())
		weighted = flag.Bool("weighted", true, "attach edge weights")
		seed     = flag.Int64("seed", 42, "generator seed")
		out      = flag.String("o", "", "output edge-list path; default stdout")
	)
	flag.Parse()

	g, err := generate(*kind, *scale, *ef, *n, *m, *width, *height, *dataset, *tierName, *weighted, *seed)
	if err != nil {
		fail(err)
	}
	st := graphpulse.ComputeGraphStats(g)
	fmt.Fprintf(os.Stderr, "generated %d vertices, %d edges (max degree %d, avg %.1f)\n",
		st.Vertices, st.Edges, st.MaxOutDegree, st.AvgOutDegree)

	var w *bufio.Writer
	if *out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	err = graphpulse.WriteEdgeList(w, g)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		fail(err)
	}
}

func generate(kind string, scale, ef, n, m, width, height int, dataset, tierName string, weighted bool, seed int64) (*graphpulse.Graph, error) {
	switch kind {
	case "rmat":
		return graphpulse.GenerateRMAT(graphpulse.RMATParams{
			A: 0.57, B: 0.19, C: 0.19, D: 0.05,
			Scale: scale, EdgeFactor: ef, Weighted: weighted, Seed: seed,
			NoiseAmount: 0.1,
		})
	case "er":
		return graphpulse.GenerateErdosRenyi(n, m, weighted, seed)
	case "grid":
		return graphpulse.GenerateGrid(width, height, weighted, seed)
	case "dataset":
		spec, err := graphpulse.DatasetByAbbrev(dataset)
		if err != nil {
			return nil, err
		}
		tier, err := gen.ParseTier(tierName)
		if err != nil {
			return nil, err
		}
		return spec.Generate(tier)
	default:
		return nil, fmt.Errorf("unknown generator %q", kind)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
	os.Exit(1)
}
