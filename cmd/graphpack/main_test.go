package main

import (
	"path/filepath"
	"testing"

	"graphpulse/internal/algorithms"
	"graphpulse/internal/conformance"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/psolve"
)

// TestParseFlags pins the flag-to-options mapping.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-o", "wg.graphpack", "-level", "0", "-slices", "32", "-refine", "2", "WG:tiny"})
	if err != nil {
		t.Fatal(err)
	}
	want := ooc.WriteOptions{Level: ooc.LevelRaw, RawLevel: true, Slices: 32, Refine: 2}
	if o.in != "WG:tiny" || o.out != "wg.graphpack" || o.write != want {
		t.Errorf("convert options = %+v", o)
	}
	if o, err = parseFlags([]string{"-o", "x", "lj.el"}); err != nil || o.write.Level != ooc.LevelDelta || o.write.RawLevel || o.write.Slices != 16 {
		t.Errorf("convert defaults = %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"WG:tiny"}, {"-o", "x"}, {"-o", "x", "a", "b"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}

// TestConvertThenCheck is CI's out-of-core smoke (ooc-smoke runs it under
// GOMEMLIMIT=128MiB): WG:tiny packed at level 2 in 32 slices, then every
// conformance algorithm solved on the store under a quarter of the decoded
// size by the serial solver and by the parallel one at 4 workers (pinned,
// so the sharded path runs on a 1-CPU machine too). Each answer must
// match the in-RAM solve within conformance.Tolerance, the budget must
// force evictions, so the answers came through the swapping path, and
// each solver must decode fewer than 10,000 slices. The native solvers sweep
// the store slice by slice (§IV-F), a few thousand decodes here; a
// worklist that ignores slices decodes once per activation (65,000+).
func TestConvertThenCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "wg.graphpack")
	if err := convert("WG:tiny", out, ooc.WriteOptions{Level: ooc.LevelDelta, Slices: 32}); err != nil {
		t.Fatal(err)
	}
	csr, err := ooc.ReadCSR(out)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ooc.Open(out, decodedBytes(csr)/4)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	solvers := []struct {
		name  string
		solve func(algorithms.Algorithm) ([]float64, error)
	}{
		{"solve", func(alg algorithms.Algorithm) ([]float64, error) {
			return algorithms.Solve(st, alg).Values, nil
		}},
		{"psolve", func(alg algorithms.Algorithm) ([]float64, error) {
			res, err := psolve.SolveCtx(nil, st, alg, psolve.Config{Workers: 4})
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
	}
	// Store traffic per solver: the counters are reset after each solve,
	// so neither solver is charged for the other's decodes.
	spent := make([]ooc.Counters, len(solvers))
	st.ResetCounters() // drop Open's verification pass
	root := graph.BestRoot(csr)
	for _, c := range conformance.Algorithms() {
		if c.Prepare != nil {
			// Prepared variants (inbound-normalized weights) are derived
			// graphs, not the stored one; the conformance suite runs them
			// on materialized CSRs.
			continue
		}
		want := algorithms.Solve(csr, c.New(root)).Values
		tol := conformance.Tolerance(c.New(root), csr)
		for i, s := range solvers {
			got, err := s.solve(c.New(root))
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, c.Name, err)
			}
			used := st.Counters()
			st.ResetCounters()
			spent[i].Decodes += used.Decodes
			spent[i].Evictions += used.Evictions
			spent[i].Hits += used.Hits
			if err := conformance.CompareValues("ooc "+s.name+"/"+c.Name, got, want, tol); err != nil {
				t.Error(err)
			}
		}
	}
	var evictions int64
	for i, s := range solvers {
		c := spent[i]
		t.Logf("%s: %d slice decodes, %d evictions, %d hits", s.name, c.Decodes, c.Evictions, c.Hits)
		evictions += c.Evictions
		if c.Decodes >= 10000 {
			t.Errorf("%s decoded %d slices, want < 10,000: the worklist stopped sweeping by slice", s.name, c.Decodes)
		}
	}
	if evictions == 0 {
		t.Error("a quarter budget forced no eviction: the residency manager was not exercised")
	}

	if err := convert(filepath.Join(t.TempDir(), "absent.el"), out, ooc.WriteOptions{}); err == nil {
		t.Error("missing input converted")
	}
}
