package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/psolve"
)

// TestEnginesOnOutOfCoreStore runs every conformance algorithm on the two
// engines that compute off a graph.Adjacency — the serial solver and the
// parallel one — twice per cell: once on the in-RAM CSR and once on a
// graphpack store opened at a quarter of the decoded size, so both compute
// through the residency manager's decode/evict path. The store run must
// match the in-RAM run within the suite tolerance (exact for the monotone
// algorithms), and the budget must actually have forced evictions. The
// cycle simulators take a *graph.CSR and never run off a store.
func TestEnginesOnOutOfCoreStore(t *testing.T) {
	base, err := gen.ErdosRenyi(220, 1400, true, 19)
	if err != nil {
		t.Fatal(err)
	}
	solvers := []struct {
		name string
		run  func(g graph.Adjacency, alg algorithms.Algorithm) ([]float64, error)
	}{
		{"solve", func(g graph.Adjacency, alg algorithms.Algorithm) ([]float64, error) {
			return algorithms.Solve(g, alg).Values, nil
		}},
		{"psolve", func(g graph.Adjacency, alg algorithms.Algorithm) ([]float64, error) {
			res, err := psolve.SolveCtx(nil, g, alg, PSolveConfig())
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
	}
	for _, c := range Algorithms() {
		prepared := c.Prepared(base)
		var pack bytes.Buffer
		if err := ooc.Write(&pack, prepared, ooc.WriteOptions{Slices: 8}); err != nil {
			t.Fatalf("%s: pack: %v", c.Name, err)
		}
		decoded := int64(len(prepared.RowPtr))*8 + int64(len(prepared.Dst))*4
		if prepared.Weight != nil {
			decoded += int64(len(prepared.Weight)) * 4
		}
		path := filepath.Join(t.TempDir(), c.Name+".graphpack")
		if err := os.WriteFile(path, pack.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ooc.Open(path, decoded/4)
		if err != nil {
			t.Fatalf("%s: open: %v", c.Name, err)
		}
		st.ResetCounters()

		root := graph.BestRoot(prepared)
		mk := c.Maker(root)
		tol := Tolerance(mk(), prepared)
		for _, s := range solvers {
			want, err := s.run(prepared, mk())
			if err != nil {
				t.Fatalf("%s/%s in-RAM: %v", s.name, c.Name, err)
			}
			got, err := s.run(st, mk())
			if err != nil {
				t.Fatalf("%s/%s on store: %v", s.name, c.Name, err)
			}
			if err := CompareValues(s.name+" ooc vs in-RAM on "+c.Name, got, want, tol); err != nil {
				t.Error(err)
			}
		}
		if cnt := st.Counters(); cnt.Evictions == 0 {
			t.Errorf("%s: quarter budget forced no evictions (decodes=%d) — store ran fully resident",
				c.Name, cnt.Decodes)
		}
		st.Close()
	}
}
