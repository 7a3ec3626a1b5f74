package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
