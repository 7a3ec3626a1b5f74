package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpulse"
	"graphpulse/internal/algorithms"
)

func TestLoadGraphRMAT(t *testing.T) {
	g, err := loadGraph("", "8x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 256 || g.NumEdges() != 1024 {
		t.Errorf("got %d/%d, want 256/1024", g.NumVertices(), g.NumEdges())
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := loadGraph("", "", 1); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadGraph("x", "8x4", 1); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadGraph("", "bogus", 1); err == nil {
		t.Error("bad rmat spec accepted")
	}
	if _, err := loadGraph("", "axb", 1); err == nil {
		t.Error("non-numeric rmat spec accepted")
	}
	if _, err := loadGraph("/nonexistent/file", "", 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	g, err := graphpulse.NewGraph(3, []graphpulse.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Text edge list.
	elPath := filepath.Join(dir, "g.el")
	f, err := os.Create(elPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphpulse.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadGraph(elPath, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 2 {
		t.Errorf("text load: %d edges", got.NumEdges())
	}
	// Binary container (auto-detected by magic).
	binPath := filepath.Join(dir, "g.bin")
	fb, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphpulse.WriteBinary(fb, g); err != nil {
		t.Fatal(err)
	}
	fb.Close()
	got2, err := loadGraph(binPath, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got2.NumEdges() != 2 {
		t.Errorf("binary load: %d edges", got2.NumEdges())
	}
}

func TestMakeAlg(t *testing.T) {
	g, err := loadGraph("", "6x2", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := graphpulse.VertexID(g.NumVertices())
	// Every registry name works here, relpath included (it used to be
	// accepted by /v1/query but not by this CLI).
	for _, name := range algorithms.Names() {
		alg, err := makeAlg(name, 0, g)
		if err != nil {
			t.Errorf("makeAlg(%s): %v", name, err)
			continue
		}
		if alg.Name() == "" {
			t.Errorf("makeAlg(%s): empty name", name)
		}
		if _, err := makeAlg(name, n, g); err == nil {
			t.Errorf("makeAlg(%s) accepted root %d on %d vertices", name, n, n)
		}
	}
	_, err = makeAlg("bogus", 0, g)
	if err == nil || !strings.Contains(err.Error(), algorithms.NamesList()) {
		t.Errorf("unknown algorithm error = %v, want one listing %s", err, algorithms.NamesList())
	}
}
