package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpulse"
	"graphpulse/internal/algorithms"
	"graphpulse/internal/graph"
	"graphpulse/internal/graph/ooc"
	"graphpulse/internal/serve"
	"graphpulse/internal/sim/telemetry/lintdoc"
)

// TestProfilesSurviveFailure fails one run on an expired -timeout and one
// on an out-of-range -root, and checks both profiles were still flushed
// and closed: pprof files are gzip streams, so reading one to EOF
// verifies its trailer.
func TestProfilesSurviveFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want error
	}{
		{"timeout", []string{"-rmat", "8x4", "-alg", "pr", "-timeout", "1ns"}, graphpulse.ErrCanceled},
		{"root", []string{"-rmat", "6x2", "-alg", "sssp", "-root", "1000"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
			var out bytes.Buffer
			err := run(append(tc.args, "-cpuprofile", cpu, "-memprofile", mem), &out, io.Discard)
			if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
				t.Fatalf("err = %v, want a failure (%v); output:\n%s", err, tc.want, out.String())
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
		})
	}
}

// TestDocsNameRealFlags: every flag the docs pass to graphpulse is one it
// defines.
func TestDocsNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("graphpulse", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := lintdoc.CheckFlags("../..", "graphpulse", fs); err != nil {
		t.Error(err)
	}
}

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

// TestLoadGraphFiles is the table of the one loading path: a graph written
// as an edge list and as a graphpack container (with and without the
// extension, so the magic is sniffed too) loads equal through loadGraph
// (graphpulse -graph) and through a serve GraphSpec.Source (serve -graph);
// a torn container and a wrong-magic container fail in both; a short text
// file is an edge list in both.
func TestLoadGraphFiles(t *testing.T) {
	dir := t.TempDir()
	g, err := graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 0.5}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 0, Weight: 1},
		{Src: 0, Dst: 3, Weight: 4}, {Src: 3, Dst: 4, Weight: 0.25},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	short, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 2, Dst: 0, Weight: 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var el, pack bytes.Buffer
	if err := graph.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := ooc.Write(&pack, g, ooc.WriteOptions{Slices: 2}); err != nil {
		t.Fatal(err)
	}
	packed := pack.Bytes()
	cases := []struct {
		name, file string
		data       []byte
		want       *graph.CSR // nil: both loaders must fail
	}{
		{"edge list", "g.el", el.Bytes(), g},
		{"graphpack", "g.graphpack", packed, g},
		{"graphpack sniffed by magic", "g.dat", packed, g},
		{"torn graphpack", "torn.graphpack", packed[:len(packed)-3], nil},
		{"wrong magic", "wrong.graphpack", append([]byte("GPKPACK0"), packed[8:]...), nil},
		{"short text", "short", []byte("0 1\n2 0"), short},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := loadGraph(path, "", 1)
			switch {
			case tc.want == nil && err == nil:
				t.Error("loadGraph accepted it")
			case tc.want != nil && err != nil:
				t.Errorf("loadGraph: %v", err)
			case tc.want != nil && !got.Equal(tc.want):
				t.Error("loadGraph did not reproduce the graph")
			}
			s, err := serve.New(serve.Config{Graphs: []serve.GraphSpec{{Name: "g", Source: path}}, Workers: 1})
			if err == nil {
				defer s.Shutdown(context.Background())
			}
			switch {
			case tc.want == nil && err == nil:
				t.Error("serve accepted it")
			case tc.want != nil && err != nil:
				t.Errorf("serve: %v", err)
			case tc.want != nil:
				checkServed(t, s, tc.want)
			}
		})
	}
}

// checkServed compares the served graph "g" with want: its /v1/graphs row,
// and every vertex of an SSSP answer (exact on any schedule) against the
// serial solve of want.
func checkServed(t *testing.T, s *serve.Server, want *graph.CSR) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/graphs", nil))
	var infos []serve.GraphInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil || len(infos) != 1 {
		t.Fatalf("/v1/graphs = %s (%v)", rec.Body, err)
	}
	if in := infos[0]; in.NumVertices != want.NumVertices() || in.NumEdges != want.NumEdges() || in.Weighted != want.Weighted() {
		t.Errorf("served shape %+v, want %d vertices, %d edges, weighted %v",
			in, want.NumVertices(), want.NumEdges(), want.Weighted())
	}
	q := serve.QueryRequest{Graph: "g", Algorithm: "sssp", Top: -1}
	for v := 0; v < want.NumVertices(); v++ {
		q.Vertices = append(q.Vertices, uint32(v))
	}
	body, _ := json.Marshal(q)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
	var resp serve.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/v1/query = %s (%v)", rec.Body, err)
	}
	ref := algorithms.Solve(want, algorithms.NewSSSP(0)).Values
	if len(resp.Values) != len(ref) {
		t.Fatalf("served %d values, want %d", len(resp.Values), len(ref))
	}
	for i, vv := range resp.Values {
		if vv.Value != ref[i] {
			t.Errorf("served sssp[%d] = %g, want %g", vv.Vertex, vv.Value, ref[i])
		}
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
