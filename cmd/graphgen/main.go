// Command graphgen generates synthetic graph workloads and writes them as
// text edge lists. cmd/graphpack converts an edge list (or a Table IV
// "ABBREV:tier" stand-in directly) into the binary graphpack container.
//
// Usage:
//
//	graphgen -kind rmat -scale 16 -edgefactor 12 -weighted -o web.el
//	graphgen -o lj.el LJ:mini
//	graphgen -kind grid -width 512 -height 512 -o road.el
//
// A positional argument is a gen.Load source, the one graph-source string
// graphpack, serve -graph and graphpulse -graph take; -kind then does not
// apply.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"graphpulse"
	"graphpulse/internal/graph/gen"
)

// options is one invocation: a generator kind and its parameters, or a
// gen.Load source.
type options struct {
	kind, source                   string
	scale, ef, n, m, width, height int
	weighted                       bool
	seed                           int64
	out                            string
}

func parseFlagSet(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.kind, "kind", "rmat", "generator: rmat|er|grid; a positional ABBREV:tier source ("+gen.TierList()+") loads a Table IV stand-in instead")
	fs.IntVar(&o.scale, "scale", 14, "rmat: log2 vertex count")
	fs.IntVar(&o.ef, "edgefactor", 12, "rmat: edges per vertex")
	fs.IntVar(&o.n, "n", 10000, "er: vertex count")
	fs.IntVar(&o.m, "m", 100000, "er: edge count")
	fs.IntVar(&o.width, "width", 256, "grid: width")
	fs.IntVar(&o.height, "height", 256, "grid: height")
	fs.BoolVar(&o.weighted, "weighted", true, "attach edge weights")
	fs.Int64Var(&o.seed, "seed", 42, "generator seed")
	fs.StringVar(&o.out, "o", "", "output edge-list path; default stdout")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch fs.NArg() {
	case 0:
	case 1:
		kindSet := false
		fs.Visit(func(f *flag.Flag) { kindSet = kindSet || f.Name == "kind" })
		if kindSet {
			return o, fmt.Errorf("a source argument takes no -kind")
		}
		o.source = fs.Arg(0)
	default:
		return o, fmt.Errorf("want at most one source argument, got %d", fs.NArg())
	}
	return o, nil
}

func main() {
	o, err := parseFlagSet(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	g, err := generate(o)
	if err != nil {
		fail(err)
	}
	st := graphpulse.ComputeGraphStats(g)
	fmt.Fprintf(os.Stderr, "generated %d vertices, %d edges (max degree %d, avg %.1f)\n",
		st.Vertices, st.Edges, st.MaxOutDegree, st.AvgOutDegree)

	var w *bufio.Writer
	if o.out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(o.out)
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

func generate(o options) (*graphpulse.Graph, error) {
	if o.source != "" {
		return gen.Load(o.source, gen.Default)
	}
	switch o.kind {
	case "rmat":
		return graphpulse.GenerateRMAT(graphpulse.RMATParams{
			A: 0.57, B: 0.19, C: 0.19, D: 0.05,
			Scale: o.scale, EdgeFactor: o.ef, Weighted: o.weighted, Seed: o.seed,
			NoiseAmount: 0.1,
		})
	case "er":
		return graphpulse.GenerateErdosRenyi(o.n, o.m, o.weighted, o.seed)
	case "grid":
		return graphpulse.GenerateGrid(o.width, o.height, o.weighted, o.seed)
	default:
		return nil, fmt.Errorf("unknown generator %q", o.kind)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
	os.Exit(1)
}
