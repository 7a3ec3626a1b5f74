package graphpulse_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// calleeExempt are the packages whose functions need no non-test caller:
// the root facade (a public API) and the test-support packages.
var calleeExempt = map[string]bool{
	"graphpulse":                                true,
	"graphpulse/internal/conformance":           true,
	"graphpulse/internal/dserve/chaos":          true,
	"graphpulse/internal/sim/telemetry/lintdoc": true,
	"graphpulse/perf":                           true, // scanned as a caller only
}

// stdlibMethods are method names the standard library calls through an
// interface (sort, container/heap, fmt, errors, encoding/json, net/http, io),
// so a method of that name needs no caller in this module.
var stdlibMethods = map[string]bool{
	"Error": true, "String": true, "Format": true, "GoString": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "ReadAt": true, "Close": true, "Set": true,
}

// TestEveryFunctionHasANonTestCaller fails when a top-level function or a
// method in the module's non-test code is referenced only from _test.go
// files: code that exists for its tests belongs in them. The scan reads
// non-test files only (perf/ included, as a caller), matching build
// constraints for this platform. Functions are matched by package and name;
// methods by name alone, so a method counts as called when any non-test
// selector uses its name.
func TestEveryFunctionHasANonTestCaller(t *testing.T) {
	type fn struct{ pkg, name, recv, pos string }
	var decls []fn
	funcUsed := map[string]bool{} // "importpath.Name"
	methodUsed := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		pkg := path.Join("graphpulse", filepath.ToSlash(dir))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			imports := map[string]string{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				local := path.Base(p)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = p
			}
			declared := map[*ast.Ident]bool{}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				d := fn{pkg: pkg, name: fd.Name.Name, pos: fset.Position(fd.Pos()).String()}
				switch {
				case fd.Recv != nil && !stdlibMethods[d.name]:
					d.recv = recvName(fd.Recv.List[0].Type)
				case fd.Recv != nil || d.name == "main" || d.name == "init":
					continue
				}
				decls = append(decls, d)
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
						funcUsed[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					methodUsed[n.Sel.Name] = true
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if !declared[n] {
						funcUsed[pkg+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, d := range decls {
		if calleeExempt[d.pkg] {
			continue
		}
		if (d.recv == "" && !funcUsed[d.pkg+"."+d.name]) || (d.recv != "" && !methodUsed[d.name]) {
			name := d.name
			if d.recv != "" {
				name = d.recv + "." + d.name
			}
			dead = append(dead, d.pos+": "+d.pkg+" "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside _test.go files", d)
	}
}

// recvName renders a method's receiver type for the failure message.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
