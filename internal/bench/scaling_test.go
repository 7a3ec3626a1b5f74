package bench

import (
	"bytes"
	"strings"
	"testing"

	"graphpulse/internal/engines"
)

// TestScalingExperimentRenders runs the scaling experiment on the tiny tier
// and pins the table shape: a serial baseline row plus one psolve row per
// worker count.
func TestScalingExperimentRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiments([]string{"scaling"}, smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "engine") || !strings.Contains(out, "speedup") {
		t.Fatalf("scaling output missing table header:\n%s", out)
	}
	if !strings.Contains(out, "solve") {
		t.Errorf("scaling output missing serial baseline row:\n%s", out)
	}
	if got, want := strings.Count(out, "psolve"), len(scalingWorkerCounts()); got < want {
		t.Errorf("scaling output has %d psolve rows, want >= %d:\n%s", got, want, out)
	}
}

// TestScalingRejectsUnknownEngine pins that -engines validation speaks the
// registry's vocabulary.
func TestScalingRejectsUnknownEngine(t *testing.T) {
	var buf bytes.Buffer
	opt := smallOptions(&buf)
	opt.Engines = []string{"warp-drive"}
	err := RunExperiments([]string{"scaling"}, opt)
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	if !strings.Contains(err.Error(), engines.NamesList()) {
		t.Errorf("error %q does not list the registry names %q", err, engines.NamesList())
	}
}
