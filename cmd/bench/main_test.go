package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphpulse/internal/bench"
	"graphpulse/internal/sim/telemetry/lintdoc"
)

// TestProfilesSurviveFailure runs an experiment that fails and checks both
// profiles were still flushed and closed: pprof files are gzip streams, so
// reading one to EOF verifies its trailer.
func TestProfilesSurviveFailure(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := run([]string{"-exp", "fig11", "-datasets", "XX",
		"-cpuprofile", cpu, "-memprofile", mem}, &out, io.Discard)
	if err == nil {
		t.Fatalf("unknown dataset accepted; output:\n%s", out.String())
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n, err := io.Copy(io.Discard, zr)
		f.Close()
		if err != nil || n == 0 {
			t.Errorf("%s: %d profile bytes, err %v", path, n, err)
		}
	}
}

// TestDocsNameRealFlags: every flag README.md and EXPERIMENTS.md pass to
// bench is one the command defines, and every id they give -exp is an
// experiment (a <placeholder> aside).
func TestDocsNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, nil); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range bench.Experiments() {
		ids[e.ID] = true
	}
	cites, err := lintdoc.CommandCites("bench", "../../README.md", "../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	exps := 0
	for _, c := range cites {
		if fs.Lookup(c.Flag) == nil {
			t.Errorf("%s: bench -%s is not a flag bench defines", c.Where, c.Flag)
		}
		if c.Flag != "exp" || strings.HasPrefix(c.Value, "<") {
			continue
		}
		for _, id := range splitList(c.Value) {
			exps++
			if !ids[id] {
				t.Errorf("%s: bench -exp %s: no experiment %q", c.Where, c.Value, id)
			}
		}
	}
	if exps == 0 {
		t.Fatal("the docs pass bench -exp no experiment id")
	}
}

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a", []string{"a"}},
		{"a,b,c", []string{"a", "b", "c"}},
		{" a , b ", []string{"a", "b"}},
		{"a,,b", []string{"a", "b"}},
		{",", nil},
	}
	for _, tc := range cases {
		got := splitList(tc.in)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
