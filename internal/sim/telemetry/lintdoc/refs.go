package lintdoc

import (
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"unicode"
)

// Docs are the hand-kept prose docs, relative to the repository root.
// Every check in this package that reads "the docs" reads these: the
// command lines (CheckFlags), the HTTP endpoints, the test names and the
// cross-doc references they cite.
var Docs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md", "METRICS.md",
	".claude/skills/verify/SKILL.md",
}

func docPaths(root string, docs []string) []string {
	paths := make([]string, len(docs))
	for i, d := range docs {
		paths[i] = filepath.Join(root, d)
	}
	return paths
}

// where names the line of text that holds offset off.
func where(doc, text string, off int) string {
	return fmt.Sprintf("%s:%d", filepath.Base(doc), strings.Count(text[:off], "\n")+1)
}

// endpoint is one HTTP endpoint a doc cites; Method is "" when the doc
// gives none (a bare `/v1/query` or a curl URL).
type endpoint struct {
	Where, Method, Path string
}

var (
	methodPathRE = regexp.MustCompile(`\b(GET|POST) (/[A-Za-z0-9_/.-]+)`)
	spanPathRE   = regexp.MustCompile("`(/(?:v1|internal|debug)/[A-Za-z0-9_/.-]*[A-Za-z0-9_]|/healthz|/metrics)")
	urlPathRE    = regexp.MustCompile(`https?://[A-Za-z0-9.-]*:[0-9]+(/[A-Za-z0-9_/.-]*)`)
)

// endpoints returns every HTTP endpoint the docs cite: "GET|POST /path",
// a code span that opens with a /v1/, /internal/ or /debug/ path (not a
// family such as `/v1/*`), /healthz
// or /metrics, and the path of a URL with a port (a local server). A query
// string is not part of the path.
func endpoints(docs ...string) ([]endpoint, error) {
	var eps []endpoint
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return nil, err
		}
		text := string(raw)
		for _, m := range methodPathRE.FindAllStringSubmatchIndex(text, -1) {
			eps = append(eps, endpoint{where(doc, text, m[0]), text[m[2]:m[3]], text[m[4]:m[5]]})
		}
		for _, re := range []*regexp.Regexp{spanPathRE, urlPathRE} {
			for _, m := range re.FindAllStringSubmatchIndex(text, -1) {
				eps = append(eps, endpoint{where(doc, text, m[0]), "", text[m[2]:m[3]]})
			}
		}
	}
	return eps, nil
}

// checkEndpoints fails on every endpoint the docs cite that no mux
// resolves to a registered pattern other than a catch-all "/". An
// endpoint cited without a method resolves under GET or POST.
func checkEndpoints(docs []string, muxes ...*http.ServeMux) error {
	eps, err := endpoints(docs...)
	if err != nil {
		return err
	}
	if len(eps) == 0 {
		return fmt.Errorf("lintdoc: the docs cite no HTTP endpoint")
	}
	resolves := func(method, path string) bool {
		req, err := http.NewRequest(method, path, nil)
		if err != nil {
			return false
		}
		for _, mux := range muxes {
			if _, pattern := mux.Handler(req); pattern != "" && pattern != "/" {
				return true
			}
		}
		return false
	}
	var bad []string
	for _, ep := range eps {
		methods := []string{ep.Method}
		if ep.Method == "" {
			methods = []string{http.MethodGet, http.MethodPost}
		}
		ok := false
		for _, m := range methods {
			ok = ok || resolves(m, ep.Path)
		}
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: %s %s", ep.Where, ep.Method, ep.Path))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("lintdoc: endpoints no server registers:\n%s", strings.Join(bad, "\n"))
	}
	return nil
}

var (
	testCiteRE = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	testDefRE  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// checkTestNames fails on every Test, Benchmark or Fuzz function the docs
// name that no _test.go file under root defines. A trailing * is a
// prefix: `TestIncremental*` needs one test whose name starts so.
func checkTestNames(root string, docs []string) error {
	defined := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDefRE.FindAllStringSubmatch(string(raw), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	exists := func(cite string) bool {
		prefix, glob := strings.CutSuffix(cite, "*")
		if !glob {
			return defined[cite]
		}
		for name := range defined {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	var bad []string
	cited := 0
	for _, doc := range docPaths(root, docs) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return err
		}
		text := string(raw)
		for _, m := range testCiteRE.FindAllStringIndex(text, -1) {
			cited++
			if name := text[m[0]:m[1]]; !exists(name) {
				bad = append(bad, where(doc, text, m[0])+": "+name)
			}
		}
	}
	if cited == 0 {
		return fmt.Errorf("lintdoc: the docs name no test")
	}
	if len(bad) > 0 {
		return fmt.Errorf("lintdoc: tests no _test.go file defines:\n%s", strings.Join(bad, "\n"))
	}
	return nil
}

var (
	linkRE    = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	sectionRE = regexp.MustCompile(`\b([A-Z][A-Z_]*\.md)\s+§\s+"([^"]{1,80})"`)
	headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)
)

// headings returns the heading texts of the markdown file at path, with
// whitespace collapsed.
func headings(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var hs []string
	inFence := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
		}
		if m := headingRE.FindStringSubmatch(line); m != nil && !inFence {
			hs = append(hs, strings.Join(strings.Fields(m[1]), " "))
		}
	}
	return hs, nil
}

// anchor is GitHub's id for a heading: lower case, spaces to hyphens,
// and everything but letters, digits, hyphens and underscores dropped.
func anchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkRefs fails on every cross-doc pointer that dangles: a relative
// markdown link whose file (relative to the citing doc) does not exist or
// whose #anchor names no heading of it, and a `FILE.md § "Heading"`
// reference whose root-level file has no heading of exactly that text
// (whitespace collapsed, so a reference may wrap).
func checkRefs(root string, docs []string) error {
	cache := map[string][]string{}
	headingsOf := func(path string) ([]string, error) {
		if hs, ok := cache[path]; ok {
			return hs, nil
		}
		hs, err := headings(path)
		if err == nil {
			cache[path] = hs
		}
		return hs, err
	}
	var bad []string
	for _, doc := range docPaths(root, docs) {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return err
		}
		text := string(raw)
		for _, m := range linkRE.FindAllStringSubmatchIndex(text, -1) {
			target := text[m[2]:m[3]]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			path := doc
			if file != "" {
				path = filepath.Join(filepath.Dir(doc), file)
			}
			if _, err := os.Stat(path); err != nil {
				bad = append(bad, where(doc, text, m[0])+": no file "+file)
				continue
			}
			if frag == "" {
				continue
			}
			hs, err := headingsOf(path)
			if err != nil {
				return err
			}
			found := false
			for _, h := range hs {
				found = found || anchor(h) == frag
			}
			if !found {
				bad = append(bad, where(doc, text, m[0])+": no heading #"+frag+" in "+filepath.Base(path))
			}
		}
		for _, m := range sectionRE.FindAllStringSubmatchIndex(text, -1) {
			file := text[m[2]:m[3]]
			want := strings.Join(strings.Fields(text[m[4]:m[5]]), " ")
			hs, err := headingsOf(filepath.Join(root, file))
			if os.IsNotExist(err) {
				bad = append(bad, where(doc, text, m[0])+": no file "+file)
				continue
			} else if err != nil {
				return err
			}
			found := false
			for _, h := range hs {
				found = found || h == want
			}
			if !found {
				bad = append(bad, fmt.Sprintf("%s: no section %q in %s", where(doc, text, m[0]), want, file))
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("lintdoc: dangling doc references:\n%s", strings.Join(bad, "\n"))
	}
	return nil
}
