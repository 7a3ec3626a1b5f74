// Command graphpack converts graphs into the out-of-core graphpack
// container (delta/varint-compressed CSR slices behind an mmap-backed lazy
// store, README "Out-of-core graphs") and self-checks containers for CI.
//
// Usage:
//
//	graphpack -o lj.graphpack -level 2 -slices 32 lj.el
//	graphpack -o wg.graphpack WG:tiny
//	graphpack -check -budget-frac 0.25 wg.graphpack
//
// Convert mode accepts any gen.Load source: a text edge list, a binary CSR
// container, or a Table IV "ABBREV:tier" synthetic stand-in, and writes the
// container atomically. Check mode opens the container
// under a residency budget (-budget bytes, or -budget-frac of the decoded
// size), solves the conformance algorithms on the store with the serial and
// parallel engines, compares against the in-RAM solve, and requires at
// least one slice eviction — proving the result came through the swapping
// path. It prints the store counters each engine spent (`solve: …`,
// `psolve: …`) and their total, and exits non-zero on any divergence, so CI
// can gate on both.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/atomicio"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/psolve"
)

// options is one invocation: check the container at in, or convert the
// gen.Load source at in into out.
type options struct {
	in, out string
	write   ooc.WriteOptions
	check   bool
	budget  int64
	frac    float64
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("graphpack", flag.ExitOnError)
	var o options
	fs.StringVar(&o.out, "o", "", "output container path (convert mode)")
	fs.IntVar(&o.write.Level, "level", ooc.LevelDelta, "compression level: 0 raw, 1 varint, 2 delta")
	fs.IntVar(&o.write.Slices, "slices", 16, "slice count (residency granularity)")
	fs.IntVar(&o.write.Refine, "refine", 1, "partition boundary-refinement passes")
	fs.BoolVar(&o.check, "check", false, "self-check an existing container instead of converting")
	fs.Int64Var(&o.budget, "budget", 0, "check: residency budget in bytes (0 = use -budget-frac)")
	fs.Float64Var(&o.frac, "budget-frac", 0.25, "check: budget as a fraction of the decoded graph size")
	fs.Parse(args) // ExitOnError
	if fs.NArg() != 1 {
		return o, fmt.Errorf("want exactly one input argument, got %d", fs.NArg())
	}
	o.in = fs.Arg(0)
	o.write.RawLevel = o.write.Level == ooc.LevelRaw
	if !o.check && o.out == "" {
		return o, fmt.Errorf("convert mode needs -o OUTPUT.graphpack")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		if o.check {
			err = selfCheck(o.in, o.budget, o.frac)
		} else {
			err = convert(o.in, o.out, o.write)
		}
	}
	if err != nil {
		fail(err)
	}
}

func convert(in, out string, opt ooc.WriteOptions) error {
	g, err := gen.Load(in, gen.Default)
	if err != nil {
		return err
	}
	// Atomic, so a failed conversion never leaves a partial container.
	if err := atomicio.WriteFile(out, func(w io.Writer) error { return ooc.Write(w, g, opt) }); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	dec := decodedBytes(g)
	fmt.Fprintf(os.Stderr, "packed %d vertices, %d edges at level %d: %d container bytes, %d decoded bytes (%.2fx)\n",
		g.NumVertices(), g.NumEdges(), opt.Level, fi.Size(), dec, float64(dec)/float64(fi.Size()))
	return nil
}

// decodedBytes is the in-RAM footprint of g, charged the way the store
// charges resident slices.
func decodedBytes(g *graph.CSR) int64 {
	b := int64(len(g.RowPtr))*8 + int64(len(g.Dst))*4
	if g.Weight != nil {
		b += int64(len(g.Weight)) * 4
	}
	return b
}

// selfCheck is the CI ooc-smoke gate: every conformance algorithm must
// produce the in-RAM result from the budgeted store, with evictions.
func selfCheck(path string, budget int64, frac float64) error {
	probe, err := ooc.Open(path, 0)
	if err != nil {
		return err
	}
	csr := graph.Materialize(probe)
	probe.Close()
	if budget <= 0 {
		budget = int64(float64(decodedBytes(csr)) * frac)
	}
	st, err := ooc.Open(path, budget)
	if err != nil {
		return err
	}
	defer st.Close()

	// Cumulative store counters per engine: the store is reset before each
	// solve, so neither engine's traffic is charged to the other.
	var solveC, psolveC ooc.Counters
	spend := func(engine *ooc.Counters) {
		addTraffic(engine, st.Counters())
		st.ResetCounters()
	}
	st.ResetCounters() // drop Open's verification pass

	root := conformance.BestRoot(csr)
	for _, c := range conformance.Algorithms() {
		if c.Prepare != nil {
			// Prepared variants (inbound-normalized weights) are derived
			// graphs, not the stored one; the store serves the graph as
			// packed, so those cases are exercised by the conformance suite
			// on materialized CSRs instead.
			continue
		}
		mk := func() algorithms.Algorithm { return c.New(root) }
		want := algorithms.Solve(csr, mk())
		tol := conformance.Tolerance(mk(), csr)
		got := algorithms.Solve(st, mk())
		spend(&solveC)
		if err := conformance.CompareValues("ooc solve/"+c.Name, got.Values, want.Values, tol); err != nil {
			return err
		}
		pres, err := psolve.SolveCtx(nil, st, mk(), psolve.DefaultConfig())
		if err != nil {
			return err
		}
		spend(&psolveC)
		if err := conformance.CompareValues("ooc psolve/"+c.Name, pres.Values, want.Values, tol); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "check %-20s ok (solve + psolve match in-RAM within %.2g)\n", c.Name, tol)
	}
	for _, e := range []struct {
		name string
		c    ooc.Counters
	}{{"solve", solveC}, {"psolve", psolveC}} {
		fmt.Fprintf(os.Stderr, "%s: ooc_slice_decodes=%d ooc_slice_evictions=%d ooc_hits=%d ooc_decoded_bytes=%d\n",
			e.name, e.c.Decodes, e.c.Evictions, e.c.Hits, e.c.DecodedBytes)
	}
	c := st.Counters() // traffic is zero after the last reset; the residency gauges survive it
	addTraffic(&c, solveC)
	addTraffic(&c, psolveC)
	fmt.Fprintf(os.Stderr, "ooc_slice_decodes=%d ooc_slice_evictions=%d ooc_hits=%d ooc_resident_bytes=%d ooc_resident_slices=%d ooc_decoded_bytes=%d\n",
		c.Decodes, c.Evictions, c.Hits, c.ResidentBytes, c.ResidentSlices, c.DecodedBytes)
	if budget < decodedBytes(csr) && c.Evictions == 0 {
		return fmt.Errorf("graphpack: budget %d below decoded size %d but no evictions — residency manager not exercised",
			budget, decodedBytes(csr))
	}
	fmt.Fprintf(os.Stderr, "self-check passed: budget %d bytes (%.0f%% of %d decoded)\n",
		budget, 100*float64(budget)/float64(decodedBytes(csr)), decodedBytes(csr))
	return nil
}

// addTraffic adds c's cumulative counters (not the residency gauges) to
// total.
func addTraffic(total *ooc.Counters, c ooc.Counters) {
	total.Decodes += c.Decodes
	total.Evictions += c.Evictions
	total.Hits += c.Hits
	total.DecodedBytes += c.DecodedBytes
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphpack:", err)
	os.Exit(1)
}
