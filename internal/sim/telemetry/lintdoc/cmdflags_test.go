package lintdoc

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCommandCites pins what counts as a command line: the flags after
// cmd/<cmd>, a "`<cmd> -" code span, or a fenced-block line that opens
// with "<cmd> -", "./<cmd> -" or "<path>/<cmd> -" (bin/, /tmp/), up to the code span's
// end, a # comment or a shell separator, continued past a trailing " \"
// and past the line end of a code span that wraps, with the word each
// flag is given.
func TestCommandCites(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "DOC.md")
	lines := "go run ./cmd/bench -exp fig10 -tier mini   # -notaflag\n" + // 1
		"Run `cmd/bench -manifest … -resume`, not `cmd/graphpulse -resume`.\n" + // 2
		"`bench -tier`, `graphgen -tier` and `cmd/bench` (`cmd/benchmark -x`)\n" + // 3
		"`go run ./cmd/bench -exp <id> [-tier mini]` then -later\n" + // 4
		"go run ./cmd/bench -list && go run ./cmd/graphpulse -alg pr\n" + // 5
		"`cmd/bench -exp=fig11,fig12`; cmd/bench/main.go is re-read\n" + // 6
		"```sh\n" + // 7
		"go run ./cmd/graphpulse -checkpoint PATH \\\n" + // 8
		"    -resume PATH\n" + // 9
		"bench -exp fig4 \\\n" + // 10
		"  -tier tiny \\\n" + // 11
		"  -csv out.csv   # -notaflag \\\n" + // 12
		"  -notacontinuation\n" + // 13
		"  ./bench -list\n" + // 14
		"  bin/bench -list\n" + // 15
		"/tmp/bench -parallel 2 &\n" + // 16
		"/tmp/benchmark -x; mybench -x; bench list -x\n" + // 17
		"```\n" + // 18
		"bench -outsideafence\n" + // 19
		"Run `cmd/graphpulse -alg pr\n" + // 20
		"-telemetry out/run` and `cmd/bench\n" + // 21
		"-tier mini`, not -later\n" // 22
	if err := os.WriteFile(doc, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cmd  string
		want []Cite
	}{
		{"bench", []Cite{
			{"DOC.md:1", "exp", "fig10"}, {"DOC.md:1", "tier", "mini"},
			{"DOC.md:2", "manifest", "…"}, {"DOC.md:2", "resume", ""},
			{"DOC.md:3", "tier", ""},
			{"DOC.md:4", "exp", "<id>"}, {"DOC.md:4", "tier", "mini"},
			{"DOC.md:5", "list", ""},
			{"DOC.md:6", "exp", "fig11,fig12"},
			{"DOC.md:10", "exp", "fig4"}, {"DOC.md:11", "tier", "tiny"}, {"DOC.md:12", "csv", "out.csv"},
			{"DOC.md:14", "list", ""},
			{"DOC.md:15", "list", ""},
			{"DOC.md:16", "parallel", "2"},
			{"DOC.md:22", "tier", "mini"},
		}},
		{"graphpulse", []Cite{
			{"DOC.md:2", "resume", ""},
			{"DOC.md:5", "alg", "pr"},
			{"DOC.md:8", "checkpoint", "PATH"}, {"DOC.md:9", "resume", "PATH"},
			{"DOC.md:20", "alg", "pr"}, {"DOC.md:21", "telemetry", "out/run"},
		}},
	} {
		got, err := CommandCites(c.cmd, doc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("CommandCites(%q) =\n%q\nwant\n%q", c.cmd, got, c.want)
		}
	}
}

// TestTableFlags reads the first column of the named table only, up to
// the table's end, and fails on a missing or flagless table.
func TestTableFlags(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "OPS.md")
	text := "# Flags\n\n| Flag (a) | Default | Effect |\n|---|---|---|\n" +
		"| `-one` | 1 | not `-other` |\n| `-two` / `-three` | 2 | |\n\n| `-after` | | |\n" +
		"| Flag (none) | Default |\n|---|---|\n| one | 1 |\n"
	if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := TableFlags(doc, "Flag (a)")
	if want := []string{"one", "two", "three"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("TableFlags = %q, %v; want %q", got, err, want)
	}
	for _, header := range []string{"Flag (none)", "Flag (missing)"} {
		if _, err := TableFlags(doc, header); err == nil {
			t.Errorf("TableFlags(%q) accepted", header)
		}
	}
}
