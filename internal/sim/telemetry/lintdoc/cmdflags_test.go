package lintdoc

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCommandCites pins what counts as a command line: the flags after
// cmd/<cmd> or a "`<cmd> -" code span, up to the code span's end, a #
// comment or a shell separator, with the word each flag is given.
func TestCommandCites(t *testing.T) {
	doc := filepath.Join(t.TempDir(), "DOC.md")
	lines := "go run ./cmd/bench -exp fig10 -tier mini   # -notaflag\n" + // 1
		"Run `cmd/bench -manifest … -resume`, not `cmd/graphpulse -resume`.\n" + // 2
		"`bench -tier`, `graphgen -tier` and `cmd/bench` (`cmd/benchmark -x`)\n" + // 3
		"`go run ./cmd/bench -exp <id> [-tier mini]` then -later\n" + // 4
		"go run ./cmd/bench -list && go run ./cmd/graphpulse -alg pr\n" + // 5
		"`cmd/bench -exp=fig11,fig12`; cmd/bench/main.go is re-read\n" // 6
	if err := os.WriteFile(doc, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := CommandCites("bench", doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []Cite{
		{"DOC.md:1", "exp", "fig10"}, {"DOC.md:1", "tier", "mini"},
		{"DOC.md:2", "manifest", "…"}, {"DOC.md:2", "resume", ""},
		{"DOC.md:3", "tier", ""},
		{"DOC.md:4", "exp", "<id>"}, {"DOC.md:4", "tier", "mini"},
		{"DOC.md:5", "list", ""},
		{"DOC.md:6", "exp", "fig11,fig12"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CommandCites =\n%q\nwant\n%q", got, want)
	}
}
