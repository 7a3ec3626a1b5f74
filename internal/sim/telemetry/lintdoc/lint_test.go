package lintdoc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricsDocIsCurrent is the staleness check CI runs in both
// directions: METRICS.md must name every counter and telemetry series the
// engines emit, and every metric-shaped name it documents must still be
// emitted — a deleted metric's row cannot outlive it.
func TestMetricsDocIsCurrent(t *testing.T) {
	doc := filepath.Join("..", "..", "..", "..", "METRICS.md")
	if err := check(doc); err != nil {
		t.Fatal(err)
	}
	if err := checkOps(doc); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFlagsUndocumentedNames proves the linter actually fails on a doc
// that omits an emitted name.
func TestCheckFlagsUndocumentedNames(t *testing.T) {
	stale := filepath.Join(t.TempDir(), "METRICS.md")
	if err := os.WriteFile(stale, []byte("# Metrics\n\nOnly `queue_occupancy` here.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(stale); err == nil {
		t.Fatal("check accepted a doc missing nearly every metric")
	}
}

// TestCheckFlagsStaleFieldTables proves check fails when METRICS.md's
// mem.Counters table omits a field, or names one the struct does not
// have (a renamed field), with the rest of the doc current.
func TestCheckFlagsStaleFieldTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "..", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	const row = "| `QueueRejects` |"
	if !strings.Contains(string(raw), row) {
		t.Fatalf("METRICS.md has no %q row to edit", row)
	}
	for name, doc := range map[string]string{
		"omitted": strings.Replace(string(raw), row, "| queue rejects |", 1),
		"renamed": strings.Replace(string(raw), row, "| `QueueRefusals` |", 1),
	} {
		stale := filepath.Join(t.TempDir(), "METRICS.md")
		if err := os.WriteFile(stale, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := check(stale); err == nil || !strings.Contains(err.Error(), "QueueRejects") {
			t.Errorf("%s row: check = %v, want an error naming QueueRejects", name, err)
		}
	}
}

// TestOperationsDocNamesAreReal is the reverse check CI runs: every metric
// name the runbook's troubleshooting guidance cites must exist in the
// build.
func TestOperationsDocNamesAreReal(t *testing.T) {
	if err := checkOps(filepath.Join("..", "..", "..", "..", "OPERATIONS.md")); err != nil {
		t.Fatal(err)
	}
}

// TestCheckOpsFlagsUnknownNames proves the reverse check fails on a
// runbook citing a metric the build does not emit, and that globs are
// honored.
func TestCheckOpsFlagsUnknownNames(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "OPERATIONS.md")
	if err := os.WriteFile(bad, []byte("Watch `router_bogus_counter` closely.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOps(bad); err == nil {
		t.Fatal("checkOps accepted a runbook citing a nonexistent metric")
	}

	good := filepath.Join(dir, "OPERATIONS2.md")
	if err := os.WriteFile(good,
		[]byte("Watch `router_retries` and the `worker_snapshot_*` family; `serve -graph` is not a metric.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOps(good); err != nil {
		t.Fatalf("checkOps rejected a runbook citing only real metrics: %v", err)
	}

	glob := filepath.Join(dir, "OPERATIONS3.md")
	if err := os.WriteFile(glob, []byte("The `router_nonexistent_*` family.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkOps(glob); err == nil {
		t.Fatal("checkOps accepted a glob matching no emitted metric")
	}
}
