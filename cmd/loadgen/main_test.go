package main

import (
	"testing"
	"time"

	"graphpulse/internal/loadgen"
)

// TestParseFlags pins the flag-to-Config mapping and the two usage errors.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-url", "http://h:1", "-graph", "wg", "-alg", "relpath", "-root", "3",
		"-c", "4", "-d", "2s", "-mutate-every", "40", "-mutate-edges", "8",
		"-delete-every", "80", "-stream-every", "200", "-stream-ops", "32", "-seed", "9",
		"-max-errors", "0", "-min-availability", "0.99",
		"-verify-wait", "3s", "-verify-replica", "http://a", "-verify-replica", "http://b",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := loadgen.Config{
		BaseURL: "http://h:1", Graph: "wg", Algorithm: "relpath", Root: 3,
		Concurrency: 4, Duration: 2 * time.Second, MutateEvery: 40, MutateEdges: 8,
		DeleteEvery: 80, StreamEvery: 200, StreamOps: 32, Seed: 9,
	}
	if o.cfg != want {
		t.Errorf("loadgen.Config = %+v\nwant %+v", o.cfg, want)
	}
	if o.maxErrs != 0 || o.minAvail != 0.99 ||
		o.verifyWait != 3*time.Second || o.verifyOnly || len(o.verifyReplicas) != 2 {
		t.Errorf("gates = %+v", o)
	}

	o, err = parseFlags([]string{"-graph", "wg"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Algorithm != "pr" || o.cfg.Concurrency != 8 || o.cfg.Duration != 5*time.Second || o.maxErrs != -1 {
		t.Errorf("defaults = %+v", o)
	}
	if _, err := parseFlags(nil); err == nil {
		t.Error("missing -graph accepted")
	}
	if _, err := parseFlags([]string{"-graph", "wg", "-verify-only"}); err == nil {
		t.Error("-verify-only without a replica accepted")
	}
}
