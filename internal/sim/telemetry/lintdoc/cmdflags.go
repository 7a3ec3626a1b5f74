package lintdoc

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// Cite is one flag a doc passes to a command on a command line.
type Cite struct {
	Where string // "README.md:107"
	Flag  string // without the dash
	Value string // the word after the flag, "" when another flag or nothing follows
}

var flagRE = regexp.MustCompile(`(?:^|[\s\[(])-([a-z][a-z0-9-]*)(?:[= ]([^-\s\[][^\s\])]*))?`)

// CommandCites returns every flag the docs pass to cmd. A command line
// starts after `cmd/<cmd>` (so also `go run ./cmd/<cmd>`), after a code
// span that opens with "<cmd> -", or, inside a fenced block, on a line
// that opens with "<cmd> -" or "<path>/<cmd> -". It runs to
// the end of the code span, a # comment or a shell separator. A line that
// ends in " \" continues it on the next line, and so does a code span
// left open at the end of a line. CheckFlags checks each Cite against the
// command's own FlagSet.
func CommandCites(cmd string, docs ...string) ([]Cite, error) {
	q := regexp.QuoteMeta(cmd)
	// Each match ends at the command line's first flag: after its dash
	// for the "<cmd> -" forms.
	start := regexp.MustCompile(`cmd/` + q + `\b|` + "`" + q + ` -`)
	fenced := regexp.MustCompile(`^\s*(?:\S*/)?` + q + ` -`)
	var cites []Cite
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		// spanOpen: a code span left open by an earlier line of the
		// paragraph is still open where this line starts.
		inFence, continued, spanOpen := false, false, false
		for i, line := range strings.Split(string(raw), "\n") {
			starts := start.FindAllStringIndex(line, -1)
			if inFence {
				starts = append(fenced.FindAllStringIndex(line, 1), starts...)
			}
			if continued {
				starts = [][]int{{0, 0}}
			}
			fence := strings.HasPrefix(strings.TrimSpace(line), "```")
			if fence {
				inFence, spanOpen = !inFence, false
			}
			continued = false
			for _, m := range starts {
				rest := line[m[1]:]
				if strings.HasSuffix(line[:m[1]], "-") {
					rest = line[m[1]-1:]
				}
				span := !inFence && spanOpen != (strings.Count(line[:m[1]], "`")%2 == 1)
				if end := strings.IndexAny(rest, "`#|;&"); end >= 0 {
					rest = rest[:end]
				} else if strings.HasSuffix(rest, " \\") {
					rest, continued = strings.TrimSuffix(rest, "\\"), true
				} else if span {
					continued = true
				}
				for _, f := range flagRE.FindAllStringSubmatch(rest, -1) {
					cites = append(cites, Cite{fmt.Sprintf("%s:%d", filepath.Base(doc), i+1), f[1], f[2]})
				}
			}
			switch {
			case inFence || fence || strings.TrimSpace(line) == "":
				spanOpen = false
			case strings.Count(line, "`")%2 == 1:
				spanOpen = !spanOpen
			}
		}
	}
	return cites, nil
}

// CheckFlags reads the command lines every doc in Docs (under root) gives
// cmd and fails on each flag fs does not define, and when the docs pass
// cmd no flag at all. It returns the cites, so a caller can check the
// values too (bench's -exp ids).
func CheckFlags(root, cmd string, fs *flag.FlagSet) ([]Cite, error) {
	cites, err := CommandCites(cmd, docPaths(root, Docs)...)
	if err != nil {
		return nil, err
	}
	if len(cites) == 0 {
		return nil, fmt.Errorf("lintdoc: the docs pass %s no flag", cmd)
	}
	var bad []error
	for _, c := range cites {
		if fs.Lookup(c.Flag) == nil {
			bad = append(bad, fmt.Errorf("%s: %s -%s is not a flag %s defines", c.Where, cmd, c.Flag, cmd))
		}
	}
	return cites, errors.Join(bad...)
}

var tableFlagRE = regexp.MustCompile("`-([a-z0-9-]+)`")

// TableFlags returns, in order, the flags named in the first column of the
// markdown table in doc whose header row starts with header (for example
// OPERATIONS.md's "Flag (router)"), so a command's tests can check a flag
// table against its FlagSet.
func TableFlags(doc, header string) ([]string, error) {
	raw, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	_, table, ok := strings.Cut(string(raw), "\n| "+header+" |")
	if !ok {
		return nil, fmt.Errorf("lintdoc: %s has no %q table", doc, header)
	}
	var names []string
	for _, line := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		for _, m := range tableFlagRE.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			names = append(names, m[1])
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lintdoc: %s's %q table names no flag", doc, header)
	}
	return names, nil
}
