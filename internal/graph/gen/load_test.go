package gen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpulse/internal/graph"
)

// TestParseTierRoundTrip: ParseTier inverts String for every tier, and an
// unknown name is rejected with the vocabulary in the message.
func TestParseTierRoundTrip(t *testing.T) {
	for _, tier := range []Tier{Tiny, Mini, Full} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if Tier(-1).String() == "" {
		t.Error("negative tier should still format")
	}
	_, err := ParseTier("huge")
	if err == nil || !strings.Contains(err.Error(), TierList()) {
		t.Errorf("ParseTier(huge) error = %v, want one listing %s", err, TierList())
	}
	if TierList() != "tiny|mini|full" {
		t.Errorf("TierList = %q", TierList())
	}
}

// TestLoadMatrix drives every kind of source string through Load — the
// forms serve -graph, graphpack and graphpulse -graph all accept, graphpack
// containers aside (those are routed to ooc before Load).
func TestLoadMatrix(t *testing.T) {
	dir := t.TempDir()
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, fill func(f *os.File) error) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fill(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	raw := func(b string) func(*os.File) error {
		return func(f *os.File) error { _, err := f.WriteString(b); return err }
	}
	el := write("g.el", func(f *os.File) error { return graph.WriteEdgeList(f, g) })
	short := write("short", raw("0 1\n2 0"))           // no trailing newline, still an edge list
	garbage := write("g.bin", raw("SCPGxxxxyyyyzzzz")) // binary bytes: not an edge list

	cache := NewCache()
	cases := []struct {
		source  string
		n, m    int
		wantErr bool
	}{
		{source: "WG:tiny", n: 1 << 12, m: 6 << 12},
		{source: "wg:tiny", n: 1 << 12, m: 6 << 12},
		{source: el, n: 3, m: 2},
		{source: short, n: 3, m: 2},
		{source: garbage, wantErr: true},
		{source: "XX:tiny", wantErr: true},                       // dataset form, unknown abbreviation
		{source: "WG:huge", wantErr: true},                       // not a tier: read as a file, which is missing
		{source: filepath.Join(dir, "absent.el"), wantErr: true}, // missing file
	}
	for _, tc := range cases {
		got, err := Load(tc.source, cache)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Load(%q) succeeded, want an error", tc.source)
			}
			continue
		}
		if err != nil {
			t.Errorf("Load(%q): %v", tc.source, err)
			continue
		}
		if got.NumVertices() != tc.n || got.NumEdges() != tc.m {
			t.Errorf("Load(%q) = %d vertices, %d edges; want %d, %d", tc.source, got.NumVertices(), got.NumEdges(), tc.n, tc.m)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries after two spellings of one dataset source, want 1", cache.Len())
	}
}
