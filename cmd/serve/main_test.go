package main

import (
	"flag"
	"testing"
	"time"

	"graphpulse/internal/sim/telemetry/lintdoc"
)

// TestParseFlags pins the flag-to-Config mapping — all that is left in this
// command now that dserve.Worker owns the boot order.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", "127.0.0.1:9001", "-graph", "wg=WG:tiny", "-graph", "crawl.el",
		"-workers", "3", "-resident-bytes", "4096", "-drain", "3s", "-pprof=false",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := o.serve
	if o.addr != "127.0.0.1:9001" || o.drain != 3*time.Second || o.worker != nil {
		t.Errorf("addr %q drain %s worker %v", o.addr, o.drain, o.worker)
	}
	if c.Workers != 3 || c.EnablePprof {
		t.Errorf("serve.Config = %+v", c)
	}
	if len(c.Graphs) != 2 || c.Graphs[0].Name != "wg" || c.Graphs[0].Source != "WG:tiny" || c.Graphs[1].Name != "crawl.el" {
		t.Fatalf("graphs = %+v", c.Graphs)
	}
	for _, g := range c.Graphs {
		if g.ResidentBytes != 4096 {
			t.Errorf("graph %q: resident %d, want every -graph to get it", g.Name, g.ResidentBytes)
		}
	}
	if _, err := parseFlags(nil); err == nil {
		t.Error("no -graph accepted")
	}
}

func TestParseFlagsWorkerMode(t *testing.T) {
	o, err := parseFlags([]string{
		"-worker", "-router", "http://127.0.0.1:8090", "-addr", ":8081", "-graph", "wg=WG:tiny",
		"-snapshot-dir", "/var/snap", "-snapshot-every", "2s", "-wal-dir", "/var/wal",
	})
	if err != nil {
		t.Fatal(err)
	}
	w := o.worker
	if w == nil {
		t.Fatal("-worker did not produce a WorkerConfig")
	}
	if w.RouterURL != "http://127.0.0.1:8090" || w.SnapshotDir != "/var/snap" || w.WALDir != "/var/wal" ||
		w.SnapshotEvery != 2*time.Second {
		t.Errorf("WorkerConfig = %+v", *w)
	}
	if w.Advertise != "http://127.0.0.1:8081" {
		t.Errorf("advertise = %q, want the wildcard -addr mapped onto loopback", w.Advertise)
	}
	if o, err := parseFlags([]string{"-worker", "-addr", ":8081", "-advertise", "http://w1:8081", "-graph", "wg=WG:tiny"}); err != nil || o.worker.Advertise != "http://w1:8081" {
		t.Errorf("explicit -advertise: %+v, %v", o.worker, err)
	}
	// A dynamic port cannot be advertised before binding.
	if _, err := parseFlags([]string{"-worker", "-addr", "127.0.0.1:0", "-graph", "wg=WG:tiny"}); err == nil {
		t.Error("worker on :0 without -advertise accepted")
	}
}

// TestOperationsFlagTable: every flag OPERATIONS.md's "Flag (worker)"
// table documents is one the command defines.
func TestOperationsFlagTable(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, []string{"-graph", "wg=WG:tiny"}); err != nil {
		t.Fatal(err)
	}
	names, err := lintdoc.TableFlags("../../OPERATIONS.md", "Flag (worker)")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if fs.Lookup(name) == nil {
			t.Errorf("OPERATIONS.md documents -%s, which serve does not define", name)
		}
	}
}

// TestDocsNameRealFlags: every flag README.md, EXPERIMENTS.md,
// OPERATIONS.md and the verify skill pass to serve is one the command
// defines.
func TestDocsNameRealFlags(t *testing.T) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	if _, err := parseFlagSet(fs, []string{"-graph", "wg=WG:tiny"}); err != nil {
		t.Fatal(err)
	}
	cites, err := lintdoc.CommandCites("serve", "../../README.md", "../../EXPERIMENTS.md",
		"../../OPERATIONS.md", "../../.claude/skills/verify/SKILL.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(cites) == 0 {
		t.Fatal("the docs pass serve no flag")
	}
	for _, c := range cites {
		if fs.Lookup(c.Flag) == nil {
			t.Errorf("%s: serve -%s is not a flag serve defines", c.Where, c.Flag)
		}
	}
}
