package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestParseFlags pins the flag-to-Config mapping — all that is left in this
// command now that dserve.Worker owns the boot order.
func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", "127.0.0.1:9001", "-graph", "wg=WG:tiny", "-graph", "crawl.el",
		"-workers", "3", "-queue", "5", "-cache-entries", "7", "-history", "2",
		"-resident-bytes", "4096", "-drain", "3s", "-pprof=false",
	})
	if err != nil {
		t.Fatal(err)
	}
	c := o.serve
	if o.addr != "127.0.0.1:9001" || o.drain != 3*time.Second || o.worker != nil {
		t.Errorf("addr %q drain %s worker %v", o.addr, o.drain, o.worker)
	}
	if c.Workers != 3 || c.QueueDepth != 5 || c.CacheEntries != 7 || c.MutationHistory != 2 || c.EnablePprof {
		t.Errorf("serve.Config = %+v", c)
	}
	if c.DefaultTimeout != 5*time.Second || c.MaxTimeout != time.Minute || c.ComputeTimeout != 2*time.Minute {
		t.Errorf("defaults not carried: %+v", c)
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
		"-snapshot-dir", "/var/snap", "-snapshot-every", "2s", "-heartbeat", "1s",
		"-wal-dir", "/var/wal", "-wal-segment-bytes", "4096",
	})
	if err != nil {
		t.Fatal(err)
	}
	w := o.worker
	if w == nil {
		t.Fatal("-worker did not produce a WorkerConfig")
	}
	if w.RouterURL != "http://127.0.0.1:8090" || w.SnapshotDir != "/var/snap" || w.WALDir != "/var/wal" ||
		w.SnapshotEvery != 2*time.Second || w.Heartbeat != time.Second || w.WALSegmentBytes != 4096 {
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
	for _, name := range docFlags(t, "Flag (worker)") {
		if fs.Lookup(name) == nil {
			t.Errorf("OPERATIONS.md documents -%s, which serve does not define", name)
		}
	}
}

var docFlagRE = regexp.MustCompile("`-([a-z0-9-]+)`")

// docFlags returns, in order, the flags named in the first column of the
// OPERATIONS.md table whose header row starts with header.
func docFlags(t *testing.T, header string) []string {
	t.Helper()
	raw, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "\n| "+header+" |")
	if !ok {
		t.Fatalf("OPERATIONS.md has no %q table", header)
	}
	var names []string
	for _, line := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		for _, m := range docFlagRE.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		t.Fatalf("OPERATIONS.md's %q table names no flag", header)
	}
	return names
}
