package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"graphpulse/internal/graph"
	"graphpulse/internal/graph/gen"
	"graphpulse/internal/graph/ooc"
)

// TestEnginesOnOutOfCoreStore runs the full Table II matrix — every
// registry engine × every conformance algorithm — twice per cell: once on
// the in-RAM CSR and once on a graphpack store opened at a quarter of the
// decoded size, so every engine computes through the residency manager's
// decode/evict path. The store run must match the in-RAM run within the
// suite tolerance (exact for the monotone algorithms), and the budget must
// actually have forced evictions.
func TestEnginesOnOutOfCoreStore(t *testing.T) {
	base, err := gen.ErdosRenyi(220, 1400, true, 19)
	if err != nil {
		t.Fatal(err)
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
		for _, e := range Engines() {
			want, err := e.Run(prepared, mk)
			if err != nil {
				t.Fatalf("%s/%s in-RAM: %v", e.Name, c.Name, err)
			}
			got, err := e.Run(graph.Adjacency(st), mk)
			if err != nil {
				t.Fatalf("%s/%s on store: %v", e.Name, c.Name, err)
			}
			if err := CompareValues(e.Name+" ooc vs in-RAM on "+c.Name, got, want, tol); err != nil {
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
