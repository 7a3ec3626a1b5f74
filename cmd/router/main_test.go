package main

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"graphpulse/internal/dserve"
	"graphpulse/internal/sim/telemetry/lintdoc"
)

// TestOffAtZero pins the flag→config mapping for -retry-budget and
// -antientropy: an operator's 0 must reach dserve as the negative "none"
// (RouterConfig reads 0 as "default": 2 retries, a 5s loop), and every
// other value must pass through untouched.
func TestOffAtZero(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, -1}, {1, 1}, {2, 2}, {-3, -3}} {
		if got := offAtZero(c.in); got != c.want {
			t.Errorf("offAtZero(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := offAtZero(time.Duration(0)); got >= 0 {
		t.Errorf("offAtZero(0s) = %v, want negative", got)
	}
	if got := offAtZero(5 * time.Second); got != 5*time.Second {
		t.Errorf("offAtZero(5s) = %v", got)
	}
}

// TestParseFlags pins the flag-to-RouterConfig mapping, the 0-means-off
// flags included.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", "127.0.0.1:9090", "-replication", "3", "-probe-interval", "3s",
		"-fail-after", "5", "-retry-budget", "0", "-backoff", "6s", "-backoff-max", "7s",
		"-drain", "8s", "-antientropy", "0",
		"-worker", "http://a:1", "-worker", "http://b:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := dserve.RouterConfig{
		Workers:     []string{"http://a:1", "http://b:1"},
		Replication: 3, ProbeInterval: 3 * time.Second,
		FailAfter: 5, RetryBudget: -1, BackoffBase: 6 * time.Second, BackoffMax: 7 * time.Second,
		AntiEntropyInterval: -1,
	}
	if o.addr != "127.0.0.1:9090" || o.drain != 8*time.Second || !reflect.DeepEqual(o.router, want) {
		t.Errorf("addr %q drain %s RouterConfig %+v, want %+v", o.addr, o.drain, o.router, want)
	}
}

// TestOperationsFlagTable: every flag OPERATIONS.md's "Flag (router)"
// table documents is one the command defines.
func TestOperationsFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, nil); err != nil {
		t.Fatal(err)
	}
	names, err := lintdoc.TableFlags("../../OPERATIONS.md", "Flag (router)")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if fs.Lookup(name) == nil {
			t.Errorf("OPERATIONS.md documents -%s, which router does not define", name)
		}
	}
}

// TestDocsNameRealFlags: every flag README.md, EXPERIMENTS.md,
// OPERATIONS.md and the verify skill pass to router is one the command
// defines.
func TestDocsNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, nil); err != nil {
		t.Fatal(err)
	}
	cites, err := lintdoc.CommandCites("router", "../../README.md", "../../EXPERIMENTS.md",
		"../../OPERATIONS.md", "../../.claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(cites) == 0 {
		t.Fatal("the docs pass router no flag")
	}
	for _, c := range cites {
		if fs.Lookup(c.Flag) == nil {
			t.Errorf("%s: router -%s is not a flag router defines", c.Where, c.Flag)
		}
	}
}
