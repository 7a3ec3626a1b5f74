package main

import (
	"flag"
	"io"
	"testing"

	"graphpulse/internal/sim/telemetry/lintdoc"
)

func TestGenerateKinds(t *testing.T) {
	base := options{scale: 8, ef: 4, n: 100, m: 500, width: 4, height: 4, weighted: true, seed: 1}
	cases := []struct {
		kind, source string
		wantN        int
		wantErr      bool
	}{
		{kind: "rmat", wantN: 1 << 8},
		{kind: "er", wantN: 100},
		{kind: "grid", wantN: 16},
		{source: "WG:tiny", wantN: 1 << 12},
		{kind: "bogus", wantErr: true},
		{kind: "dataset", wantErr: true},
	}
	for _, tc := range cases {
		o := base
		o.kind, o.source = tc.kind, tc.source
		name := tc.kind + tc.source
		g, err := generate(o)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: expected error", name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.NumVertices() != tc.wantN {
			t.Errorf("%s: %d vertices, want %d", name, g.NumVertices(), tc.wantN)
		}
	}
}

func TestGenerateDatasetValidation(t *testing.T) {
	for _, source := range []string{"XX:tiny", "WG:huge"} {
		if _, err := generate(options{source: source}); err == nil {
			t.Errorf("source %q accepted", source)
		}
	}
}

// TestParseFlags: a positional argument is a gen.Load source, which
// replaces the -kind generator; it cannot be combined with -kind or another source.
func TestParseFlags(t *testing.T) {
	parse := func(args ...string) (options, error) {
		fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return parseFlagSet(fs, args)
	}
	o, err := parse("-o", "lj.el", "LJ:mini")
	if err != nil || o.source != "LJ:mini" || o.out != "lj.el" {
		t.Errorf("source argument: %+v, %v", o, err)
	}
	if o, err := parse("-kind", "grid", "-width", "8"); err != nil || o.kind != "grid" || o.width != 8 || o.source != "" {
		t.Errorf("-kind grid: %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"-kind", "rmat", "LJ:mini"}, {"LJ:mini", "WG:tiny"}, {"-dataset", "LJ"}} {
		if _, err := parse(bad...); err == nil {
			t.Errorf("parseFlagSet(%q) accepted", bad)
		}
	}
}

// TestDocsNameRealFlags: every flag the docs pass to graphgen is one it
// defines.
func TestDocsNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lintdoc.CheckFlags("../..", "graphgen", fs); err != nil {
		t.Error(err)
	}
}
