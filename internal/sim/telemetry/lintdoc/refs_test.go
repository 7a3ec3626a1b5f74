package lintdoc

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpulse/internal/dserve"
	"graphpulse/internal/serve"
)

const repoRoot = "../../../.."

// writeTree writes files (path -> content) under a new temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, text := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// servingMuxes returns the muxes of a serve.Server (pprof on), the
// dserve.Worker around it and a dserve.Router: every endpoint this
// repository serves.
func servingMuxes(t *testing.T) []*http.ServeMux {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 1, EnablePprof: true,
		Graphs: []serve.GraphSpec{{Name: "wg", Source: "WG:tiny"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	wk, err := dserve.NewWorker(dserve.WorkerConfig{Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := dserve.NewRouter(dserve.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	var muxes []*http.ServeMux
	for _, h := range []http.Handler{srv.Handler(), wk.Handler(), rt.Handler()} {
		muxes = append(muxes, h.(*http.ServeMux))
	}
	return muxes
}

// TestDocsNameRealEndpoints: every HTTP endpoint the docs cite is one the
// serving tier registers.
func TestDocsNameRealEndpoints(t *testing.T) {
	if err := checkEndpoints(docPaths(repoRoot, Docs), servingMuxes(t)...); err != nil {
		t.Error(err)
	}
}

// TestCheckEndpoints: "GET|POST /path", a path code span and a local URL
// are each read, a method must match, a query string is dropped, and the
// worker's catch-all "/" resolves nothing.
func TestCheckEndpoints(t *testing.T) {
	root := writeTree(t, map[string]string{
		"OK.md": "`GET /internal/digest`, `/v1/query` and\n" +
			"curl -s http://127.0.0.1:8090/internal/wal?after=3 and https://ui.perfetto.dev/x\n",
	})
	eps, err := endpoints(filepath.Join(root, "OK.md"))
	want := []endpoint{{"OK.md:1", "GET", "/internal/digest"}, {"OK.md:1", "", "/v1/query"}, {"OK.md:2", "", "/internal/wal"}}
	if err != nil || len(eps) != len(want) {
		t.Fatalf("endpoints = %q, %v; want %q", eps, err, want)
	}
	for i := range want {
		if eps[i] != want[i] {
			t.Errorf("endpoint %d = %q, want %q", i, eps[i], want[i])
		}
	}
	muxes := servingMuxes(t)
	if err := checkEndpoints([]string{filepath.Join(root, "OK.md")}, muxes...); err != nil {
		t.Errorf("real endpoints rejected: %v", err)
	}
	for _, stale := range []string{"`POST /internal/digest`", "`/v1/checkpoint`", "http://127.0.0.1:8081/nope"} {
		doc := filepath.Join(root, "STALE.md")
		if err := os.WriteFile(doc, []byte(stale+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkEndpoints([]string{doc}, muxes...); err == nil {
			t.Errorf("checkEndpoints accepted %s", stale)
		}
	}
}

// TestDocsNameRealTests: every Test, Benchmark and Fuzz function the docs
// name exists.
func TestDocsNameRealTests(t *testing.T) {
	if err := checkTestNames(repoRoot, Docs); err != nil {
		t.Error(err)
	}
}

// TestCheckTestNames: a cited name must be defined in a _test.go file, a
// trailing * is a prefix, and a name defined outside a _test.go file does
// not count.
func TestCheckTestNames(t *testing.T) {
	files := map[string]string{
		"pkg/a_test.go": "package pkg\n\nfunc TestIncrementalInsert(t *testing.T) {}\nfunc BenchmarkSolve(b *testing.B) {}\n",
		"pkg/a.go":      "package pkg\n\nfunc TestHelper() {}\n",
		"DOC.md":        "`TestIncremental*`, `go test -bench BenchmarkSolve`, Tests and BENCHMARK.json.\n",
	}
	if err := checkTestNames(writeTree(t, files), []string{"DOC.md"}); err != nil {
		t.Errorf("real names rejected: %v", err)
	}
	for _, stale := range []string{"TestHelper", "TestGone*", "FuzzMissing", "BenchmarkSolveAll"} {
		files["DOC.md"] = "see `" + stale + "`\n"
		err := checkTestNames(writeTree(t, files), []string{"DOC.md"})
		if err == nil || !strings.Contains(err.Error(), stale) {
			t.Errorf("checkTestNames on %s = %v, want an error naming it", stale, err)
		}
	}
}

// TestDocRefsResolve: every cross-doc link and section reference in the
// docs names a file and a heading that exist.
func TestDocRefsResolve(t *testing.T) {
	if err := checkRefs(repoRoot, Docs); err != nil {
		t.Error(err)
	}
}

// TestCheckRefs: links resolve against the citing doc's directory and
// anchors against the target's headings; a `FILE.md § "Heading"`
// reference resolves against the root by the heading's exact text, and
// may wrap across a line break.
func TestCheckRefs(t *testing.T) {
	files := map[string]string{
		"A.md": "# A\n\n## 3. Per-experiment index\n\n## Serving metrics (`/metrics`)\n\n```\n## Not a heading\n```\n",
		"sub/B.md": "# B\n\nSee [a](../A.md#3-per-experiment-index), [b](#b) and [c](https://x.test/#nope),\n" +
			"A.md § \"3. Per-experiment\nindex\", A.md § \"Serving metrics (`/metrics`)\" and ROADMAP item 12.\n",
	}
	if err := checkRefs(writeTree(t, files), []string{"sub/B.md"}); err != nil {
		t.Errorf("resolving refs rejected: %v", err)
	}
	for _, stale := range []string{
		"[x](../C.md)", "[x](../A.md#gone)", "[x](#a)", `A.md § "Gone"`, `C.md § "A"`,
		`A.md § "Not a heading"`, `A.md § "Per-experiment index"`, `A.md § "Serving metrics"`,
	} {
		files["sub/B.md"] = "# B\n\n" + stale + "\n"
		if err := checkRefs(writeTree(t, files), []string{"sub/B.md"}); err == nil {
			t.Errorf("checkRefs accepted %s", stale)
		}
	}
}
