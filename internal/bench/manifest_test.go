package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpulse/internal/graph/gen"
)

// sweepCSV renders a sweep's CSV export.
func sweepCSV(t *testing.T, sw *Sweep) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sw.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSweepResumeCSVIdentical is the resume acceptance gate: a sweep killed
// mid-run and resumed from its manifest must produce byte-identical CSV to
// the uninterrupted run. The kill is simulated by erasing a slice of the
// recorded jobs — whole cells and individual engines — from the manifest of
// a completed run before resuming.
func TestSweepResumeCSVIdentical(t *testing.T) {
	dir := t.TempDir()
	opt := sweepOptions()
	opt.Manifest = filepath.Join(dir, "sweep.manifest.json")
	ws := chainWorkloads(t)

	full, err := runSweep(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := sweepCSV(t, full)

	m, err := ReadManifest(opt.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != len(full.Cells) {
		t.Fatalf("manifest has %d cells, want %d", len(m.Cells), len(full.Cells))
	}
	// Simulate the kill: one whole cell lost, one cell missing two engines.
	var keys []string
	for k := range m.Cells {
		keys = append(keys, k)
	}
	delete(m.Cells, keys[0])
	for _, k := range keys {
		if mc, ok := m.Cells[k]; ok {
			delete(mc.Done, "opt")
			delete(mc.Done, "gion")
			break
		}
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opt.Manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	opt.Resume = true
	resumed, err := runSweep(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepCSV(t, resumed); got != wantCSV {
		t.Errorf("resumed CSV differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", wantCSV, got)
	}

	// A second resume with nothing left to run must also agree (pure
	// restore, zero jobs executed).
	restored, err := runSweep(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepCSV(t, restored); got != wantCSV {
		t.Error("pure-restore resume CSV differs from uninterrupted run")
	}
}

// TestManifestResumeRestoresFailures: a recorded failure must come back as
// a failure with the original message, not be silently re-measured or
// turned into a success.
func TestManifestResumeRestoresFailures(t *testing.T) {
	dir := t.TempDir()
	opt := sweepOptions()
	opt.Manifest = filepath.Join(dir, "m.json")
	ws := chainWorkloads(t)
	const doomed = 1
	ws[doomed].MaxCycles = 10

	first, err := runSweep(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantReason := first.Cells[doomed].FailureReason()
	if wantReason == "" {
		t.Fatal("choked cell did not fail")
	}

	ws2 := chainWorkloads(t)
	ws2[doomed].MaxCycles = 10
	opt.Resume = true
	second, err := runSweep(ws2, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := second.Cells[doomed]
	if !got.Failed() {
		t.Fatal("restored cell is no longer failed")
	}
	if got.FailureReason() != wantReason {
		t.Errorf("restored failure %q, want %q", got.FailureReason(), wantReason)
	}
}

// TestManifestSignatureMismatch: resuming with different sweep parameters
// must fail loudly instead of mixing measurements from two sweeps.
func TestManifestSignatureMismatch(t *testing.T) {
	dir := t.TempDir()
	opt := sweepOptions()
	opt.Manifest = filepath.Join(dir, "m.json")
	ws := chainWorkloads(t)
	if _, err := runSweep(ws, opt); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	_, err := runSweep(ws[:1], opt) // narrower sweep than recorded
	if err == nil {
		t.Fatal("resume with a different sweep signature succeeded")
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Errorf("error %q does not mention the manifest", err)
	}
}

// TestManifestResumeRequiresPath: -resume without -manifest is a usage
// error, not a silent fresh start.
func TestManifestResumeRequiresPath(t *testing.T) {
	opt := sweepOptions()
	opt.Resume = true
	if _, err := runSweep(chainWorkloads(t), opt); err == nil {
		t.Fatal("Resume without Manifest succeeded")
	}
}

// TestManifestResumeMissingFileStartsFresh: -resume pointing at a manifest
// that does not exist yet (first run of a resumable sweep) starts fresh and
// writes the manifest.
func TestManifestResumeMissingFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	opt := sweepOptions()
	opt.Manifest = filepath.Join(dir, "new.json")
	opt.Resume = true
	sw, err := runSweep(chainWorkloads(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) == 0 {
		t.Fatal("sweep ran no cells")
	}
	m, err := ReadManifest(opt.Manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if len(m.Cells) != len(sw.Cells) {
		t.Errorf("manifest records %d cells, want %d", len(m.Cells), len(sw.Cells))
	}
	for key, mc := range m.Cells {
		for _, eng := range EngineNames {
			if !mc.Done[eng] {
				t.Errorf("cell %s engine %s not recorded", key, eng)
			}
		}
	}
}

// TestReadsParentManifest: a manifest written by the commit before the
// state-file codec moved into atomicio (literal bytes in testdata) resumes
// a sweep without re-running a job, and flushing it back reproduces the
// bytes minus the fields the format has since dropped: the host wall time
// ("LigraSeconds"), the fault-recovery counters and the vertex trace of
// core.Result.
func TestReadsParentManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "manifest_pr18.json"))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Tier: gen.Tiny, Datasets: []string{"WG"}, Algorithms: []string{"pr", "bfs"}}
	opt.Manifest = filepath.Join(t.TempDir(), "m.json")
	opt.Resume = true
	if err := os.WriteFile(opt.Manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ws, err := Workloads(opt)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := newManifestWriter(ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		for _, eng := range EngineNames {
			if !mw.done(w, eng) {
				t.Errorf("%s %s not restored from the parent-written manifest", cellKey(w), eng)
			}
		}
	}
	if got := mw.m.Cells["WG/bfs"].Opt.Cycles; got != 10335 {
		t.Errorf("restored WG/bfs opt cycles = %d, want 10335", got)
	}
	if err := mw.flushLocked(); err != nil {
		t.Fatal(err)
	}
	dropped := []byte("   \"LigraSeconds\": 1,\n")
	want := bytes.ReplaceAll(raw, dropped, nil)
	if len(raw)-len(want) != 2*len(dropped) {
		t.Fatal("testdata no longer holds the two LigraSeconds lines")
	}
	// Each of the four results carries one line per fault-recovery counter
	// and one for the trace.
	for _, line := range []string{`"MemFaults": 0`, `"MemRetries": 0`, `"DroppedEvents": 0`,
		`"RedeliveredEvents": 0`, `"ReorderedEvents": 0`, `"SpillRecovered": 0`, `"FaultsInjected": null`,
		`"Trace": null`} {
		retired := []byte("    " + line + ",\n")
		if bytes.Count(want, retired) != 4 {
			t.Fatalf("testdata no longer holds four %s lines", line)
		}
		want = bytes.ReplaceAll(want, retired, nil)
	}
	if got, _ := os.ReadFile(opt.Manifest); !bytes.Equal(got, want) {
		t.Errorf("re-flushed manifest differs from the parent-written bytes minus LigraSeconds, the fault counters and the trace:\n%s", got)
	}
}
