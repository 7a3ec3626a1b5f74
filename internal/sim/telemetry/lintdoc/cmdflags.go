package lintdoc

import (
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

// CommandCites returns every flag the docs pass to cmd: on each line,
// after `cmd/<cmd>` (so also `go run ./cmd/<cmd>`) or a code span that
// opens with "<cmd> -", up to the end of the code span, a # comment or a
// shell separator. The caller checks each Cite against the command's own
// FlagSet, so a doc that keeps a deleted flag fails its command's tests.
func CommandCites(cmd string, docs ...string) ([]Cite, error) {
	q := regexp.QuoteMeta(cmd)
	start := regexp.MustCompile(`cmd/` + q + `\b|` + "`" + q + `( -)`)
	var cites []Cite
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range start.FindAllStringSubmatchIndex(line, -1) {
				rest := line[m[1]:]
				if m[2] >= 0 { // "`<cmd> -": the first flag starts at the dash
					rest = line[m[2]:]
				}
				if end := strings.IndexAny(rest, "`#|;&"); end >= 0 {
					rest = rest[:end]
				}
				for _, f := range flagRE.FindAllStringSubmatch(rest, -1) {
					cites = append(cites, Cite{fmt.Sprintf("%s:%d", filepath.Base(doc), i+1), f[1], f[2]})
				}
			}
		}
	}
	return cites, nil
}
