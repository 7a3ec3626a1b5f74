package algorithms

import (
	"fmt"
	"math"
	"testing"

	"graphpulse/internal/graph"
)

// kernelValues, kernelWeights and kernelDegrees are the value table of
// TestKernelsMatchInterface and the seed corpus of FuzzKernelMatchesInterface.
// The values are those where builtin min/max, + and · could part from the
// interface methods' math.Min/math.Max (NaN, ±0, ±∞, a subnormal); the
// weights are finite, because no graph file holds any other.
var (
	kernelValues = []Value{
		math.Inf(-1), -1, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		0.5, 1, math.Inf(1), math.NaN(),
	}
	kernelWeights = []float32{0, 0.25, 1, 3}
	kernelDegrees = []int{1, 7}
)

// kernelAlgorithms returns every ByName algorithm, bare and behind a warm
// start, which must get the same kernel.
func kernelAlgorithms(t testing.TB) []Algorithm {
	t.Helper()
	var algs []Algorithm
	for _, name := range Names() {
		alg, err := ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, alg, WarmStart(alg, nil, nil))
	}
	return algs
}

// fanOut returns a graph whose vertex 0 has deg out-edges of weight w, to
// the sinks 1..deg; weighted false gives the unweighted graph, whose edges
// weigh 1.
func fanOut(t testing.TB, deg int, w float32, weighted bool) *graph.CSR {
	t.Helper()
	edges := make([]graph.Edge, deg)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.VertexID(i + 1), Weight: w}
	}
	g, err := graph.FromEdges(deg+1, edges, weighted)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sameValue reports whether a and b have equal float64 bits; any two NaNs
// count as equal.
func sameValue(a, b Value) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkKernel runs alg's kernel for one activation of vertex 0 of g, with
// state old and pending delta δ, every sink's pending delta being acc, and
// compares what the loop wrote with alg's methods: state[0] with
// Reduce(old, δ), the emitted count with Changed, acc[0] with Identity, and
// each sink's pending delta with Reduce(acc, Propagate(δ, edge)). The sinks'
// occupancy bits are set without counting them in Len, so the loop folds
// into them as queued vertices and stops before activating them.
func checkKernel(alg Algorithm, g *graph.CSR, old, delta, acc Value) error {
	k, ok := kernelFor(alg)
	if !ok {
		return fmt.Errorf("%s has no kernel", alg.Name())
	}
	n := g.NumVertices()
	s := solver{
		g: g, csr: g,
		state: make([]Value, n),
		acc:   make([]Value, n),
		wl:    NewWorklist(g, 0, graph.VertexID(n)),
	}
	s.state[0], s.acc[0] = old, delta
	for d := 1; d < n; d++ {
		s.acc[d] = acc
		s.wl.queued[d>>6] |= 1 << (d & 63)
	}
	s.wl.Push(0)
	s.run(k)

	next := alg.Reduce(old, delta)
	changed := alg.Changed(old, next)
	where := fmt.Sprintf("%s: old %v, δ %v, acc %v", alg.Name(), old, delta, acc)
	if !sameValue(s.state[0], next) {
		return fmt.Errorf("%s: reduce %v, Reduce %v", where, s.state[0], next)
	}
	if !sameValue(s.acc[0], alg.Identity()) {
		return fmt.Errorf("%s: pending delta reset to %v, Identity %v", where, s.acc[0], alg.Identity())
	}
	if emitted := s.res.Emitted > 0; emitted != changed || s.res.Activations != 1 {
		return fmt.Errorf("%s: changed %v after %d activations, Changed %v", where, emitted, s.res.Activations, changed)
	}
	dst, wt := g.Row(0)
	for i, d := range dst {
		want := acc
		if changed {
			e := EdgeContext{Src: 0, Dst: d, Weight: 1, SrcOutDegree: len(dst)}
			if wt != nil {
				e.Weight = wt[i]
			}
			want = alg.Reduce(acc, alg.Propagate(delta, e))
		}
		if !sameValue(s.acc[d], want) {
			return fmt.Errorf("%s, degree %d, weighted %v: edge to %d folds to %v, interface %v",
				where, len(dst), wt != nil, d, s.acc[d], want)
		}
	}
	return nil
}

// TestKernelsMatchInterface holds every kernel's reduce, changed test and
// per-edge fold to the algorithm's own Reduce, Changed and Propagate, value
// by value, over the table above: every (old, δ, acc) triple on a fan-out
// of each degree and weight, and on an unweighted fan-out.
func TestKernelsMatchInterface(t *testing.T) {
	var graphs []*graph.CSR
	for _, deg := range kernelDegrees {
		for _, w := range kernelWeights {
			graphs = append(graphs, fanOut(t, deg, w, true))
		}
		graphs = append(graphs, fanOut(t, deg, 1, false))
	}
	for _, alg := range kernelAlgorithms(t) {
		failed := 0
		for _, g := range graphs {
			for _, old := range kernelValues {
				for _, delta := range kernelValues {
					for _, acc := range kernelValues {
						if err := checkKernel(alg, g, old, delta, acc); err != nil && failed < 5 {
							t.Errorf("%T: %v", alg, err)
							failed++
						}
					}
				}
			}
		}
	}
}

// FuzzKernelMatchesInterface runs checkKernel on arbitrary float64 bits for
// old, δ and acc, any finite weight and a degree of 1 to 8.
func FuzzKernelMatchesInterface(f *testing.F) {
	for _, old := range kernelValues {
		for _, delta := range kernelValues {
			for _, acc := range kernelValues {
				for _, w := range kernelWeights {
					for _, deg := range kernelDegrees {
						f.Add(math.Float64bits(old), math.Float64bits(delta), math.Float64bits(acc),
							math.Float32bits(w), uint8(deg-1), true)
					}
				}
			}
		}
	}
	algs := kernelAlgorithms(f)
	f.Fuzz(func(t *testing.T, old, delta, acc uint64, wbits uint32, deg uint8, weighted bool) {
		w := math.Float32frombits(wbits)
		if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
			return
		}
		g := fanOut(t, 1+int(deg%8), w, weighted)
		for _, alg := range algs {
			if err := checkKernel(alg, g, math.Float64frombits(old), math.Float64frombits(delta), math.Float64frombits(acc)); err != nil {
				t.Errorf("%T: %v", alg, err)
			}
		}
	})
}
