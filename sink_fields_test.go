package arrow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// sinkFields is how many named struct fields of the module's non-test code
// (benchmark/ aside) hold a sink: an obs.Recorder, a *ledger.Ledger or a
// *obs.StageProfiler.
const sinkFields = 11

// TestSinksRideTheContext holds the rule of DESIGN.md, "Sinks ride the
// context": library code reads its metrics recorder, ledger and stage
// profiler from the context, and the count of struct fields that carry one
// may only fall. An embedded sink (a decorator type such as te's
// phase1Recorder) is a sink, not a field that carries one, and is not
// counted.
func TestSinksRideTheContext(t *testing.T) {
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if isSink(f.Name.Name, fld.Type) {
					for _, name := range fld.Names {
						found = append(found, fset.Position(name.Pos()).String()+" "+name.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != sinkFields {
		t.Errorf("%d struct fields hold a sink, want %d (DESIGN.md, \"Sinks ride the context\": attach sinks to the context, or update the count and DESIGN.md when one is removed):\n%s",
			len(found), sinkFields, strings.Join(found, "\n"))
	}
}

// isSink reports whether a field type written in package pkg is
// obs.Recorder, *ledger.Ledger or *obs.StageProfiler.
func isSink(pkg string, typ ast.Expr) bool {
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			pkg = id.Name
		}
		typ = x.Sel
	}
	id, ok := typ.(*ast.Ident)
	if !ok {
		return false
	}
	switch pkg + "." + id.Name {
	case "obs.Recorder":
		return !star
	case "ledger.Ledger", "obs.StageProfiler":
		return star
	}
	return false
}
