// Command graphpack converts graphs into the out-of-core graphpack
// container (delta/varint-compressed CSR slices behind an mmap-backed lazy
// store, README "Out-of-core graphs").
//
// Usage:
//
//	graphpack -o lj.graphpack -level 2 -slices 32 lj.el
//	graphpack -o wg.graphpack WG:tiny
//
// It accepts any gen.Load source, a text edge list or a Table IV
// "ABBREV:tier" synthetic stand-in, and writes the container atomically.
// It is the one writer of the one binary graph format; serve -graph and
// graphpulse -graph read what it writes. TestConvertThenCheck solves the conformance
// algorithms on a converted container under a quarter residency budget and
// compares them with the in-RAM solve (`go test ./cmd/graphpack`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphpulse/internal/atomicio"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
)

// options is one invocation: convert the gen.Load source at in into out.
type options struct {
	in, out string
	write   ooc.WriteOptions
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("graphpack", flag.ExitOnError)
	var o options
	fs.StringVar(&o.out, "o", "", "output container path")
	fs.IntVar(&o.write.Level, "level", ooc.LevelDelta, "compression level: 0 raw, 1 varint, 2 delta")
	fs.IntVar(&o.write.Slices, "slices", 16, "slice count (residency granularity)")
	fs.IntVar(&o.write.Refine, "refine", 1, "partition boundary-refinement passes")
	fs.Parse(args) // ExitOnError
	if fs.NArg() != 1 {
		return o, fmt.Errorf("want exactly one input argument, got %d", fs.NArg())
	}
	o.in = fs.Arg(0)
	o.write.RawLevel = o.write.Level == ooc.LevelRaw
	if o.out == "" {
		return o, fmt.Errorf("need -o OUTPUT.graphpack")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = convert(o.in, o.out, o.write)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphpack:", err)
		os.Exit(1)
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
