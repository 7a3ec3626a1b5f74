package main

import (
	"path/filepath"
	"testing"

	"graphpulse/internal/graph/ooc"
)

// TestParseFlags pins the flag-to-options mapping of both modes.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-o", "wg.graphpack", "-level", "0", "-slices", "32", "-refine", "2", "WG:tiny"})
	if err != nil {
		t.Fatal(err)
	}
	want := ooc.WriteOptions{Level: ooc.LevelRaw, RawLevel: true, Slices: 32, Refine: 2}
	if o.check || o.in != "WG:tiny" || o.out != "wg.graphpack" || o.write != want {
		t.Errorf("convert options = %+v", o)
	}
	if o, err = parseFlags([]string{"-o", "x", "lj.el"}); err != nil || o.write.Level != ooc.LevelDelta || o.write.RawLevel || o.write.Slices != 16 {
		t.Errorf("convert defaults = %+v, %v", o, err)
	}
	o, err = parseFlags([]string{"-check", "-budget", "4096", "-budget-frac", "0.5", "wg.graphpack"})
	if err != nil || !o.check || o.in != "wg.graphpack" || o.budget != 4096 || o.frac != 0.5 {
		t.Errorf("check options = %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"WG:tiny"}, {"-o", "x"}, {"-o", "x", "a", "b"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}

// TestConvertThenCheck packs a dataset source and self-checks the container
// under a quarter budget — the ooc-smoke sequence, in process.
func TestConvertThenCheck(t *testing.T) {
	out := filepath.Join(t.TempDir(), "wg.graphpack")
	if err := convert("WG:tiny", out, ooc.WriteOptions{Level: ooc.LevelDelta, Slices: 8}); err != nil {
		t.Fatal(err)
	}
	if err := selfCheck(out, 0, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := convert(filepath.Join(t.TempDir(), "absent.el"), out, ooc.WriteOptions{}); err == nil {
		t.Error("missing input converted")
	}
}
