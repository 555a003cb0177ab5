package arrow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sinkFields is how many named struct fields of the module's non-test code
// (benchmark/ aside) hold a sink: an obs.Recorder, a *ledger.Ledger or a
// *obs.StageProfiler.
const sinkFields = 11

// settingFields is how many named struct fields of the module's non-test
// code (benchmark/ aside) are called HealthEvery, Parallelism or Workers: the
// boundaries (arrow.PlanOptions, eval.Config, eval.PipelineOptions) and the
// context-free leaves (lp.Options, rwa.Request, te.ArrowOptions).
const settingFields = 8

// optionFields is how many exported fields the module's option structs
// (optionStructs) declare. A field that no caller outside tests sets only
// restates its default, and is a constant next to its reader instead.
const optionFields = 101

// optionStructs names the option structs, package by package: what a caller
// hands a solver, a stage or an entry point to configure one call.
// noise.Config is an output record, not options.
var optionStructs = map[string][]string{
	"arrow":    {"PlanOptions", "SolveOptions"},
	"attr":     {"Options"},
	"emu":      {"Config"},
	"eval":     {"Config", "PipelineOptions"},
	"lp":       {"Options"},
	"mip":      {"Options"},
	"obs":      {"ServeOpts"},
	"plan":     {"Options", "Space"},
	"rwa":      {"Request"},
	"scenario": {"EnumOptions"},
	"sim":      {"TimelineOptions"},
	"te":       {"ArrowOptions", "TeaVaROptions"},
	"ticket":   {"Options"},
	"traffic":  {"Options"},
}

// TestSinksRideTheContext holds the rule of DESIGN.md, "Sinks ride the
// context": library code reads its metrics recorder, ledger and stage
// profiler from the context, and the count of struct fields that carry one
// may only fall. An embedded sink (a decorator type such as te's
// phase1Recorder) is a sink, not a field that carries one, and is not
// counted.
func TestSinksRideTheContext(t *testing.T) {
	found := structFields(t, func(pkg, _ string, fld *ast.Field, _ string) bool { return isSink(pkg, fld.Type) })
	if len(found) != sinkFields {
		t.Errorf("%d struct fields hold a sink, want %d (DESIGN.md, \"Sinks ride the context\": attach sinks to the context, or update the count and DESIGN.md when one is removed):\n%s",
			len(found), sinkFields, strings.Join(found, "\n"))
	}
}

// TestSettingsRideTheContext holds the same rule for the two settings whose
// every value gives the same results, the LP probe period and the worker
// budget: they ride the context (obs.WithHealthEvery, par.WithWorkers) past
// the boundaries, and the count of fields that restate one may only fall.
func TestSettingsRideTheContext(t *testing.T) {
	found := structFields(t, func(_, _ string, _ *ast.Field, name string) bool {
		return name == "HealthEvery" || name == "Parallelism" || name == "Workers"
	})
	if len(found) != settingFields {
		t.Errorf("%d struct fields restate the probe period or the worker budget, want %d (DESIGN.md, \"Sinks ride the context\": read them from the context, or update the count and DESIGN.md when one is removed):\n%s",
			len(found), settingFields, strings.Join(found, "\n"))
	}
}

// TestOptionFieldsOnlyFall holds the option structs to the fields some
// caller sets: the count of their exported fields may only fall, and a new
// one needs a caller outside tests (DESIGN.md, "Sinks ride the context").
func TestOptionFieldsOnlyFall(t *testing.T) {
	want := 0
	for _, names := range optionStructs {
		want += len(names)
	}
	seen := map[string]bool{}
	found := structFields(t, func(pkg, typ string, _ *ast.Field, name string) bool {
		if !slices.Contains(optionStructs[pkg], typ) {
			return false
		}
		seen[pkg+"."+typ] = true
		return ast.IsExported(name)
	})
	if len(seen) != want {
		t.Fatalf("found %d of the %d option structs: %v", len(seen), want, seen)
	}
	if len(found) != optionFields {
		t.Errorf("%d exported option fields, want %d (DESIGN.md, \"Sinks ride the context\": a field no caller sets is a constant, or update the count and DESIGN.md when one is removed):\n%s",
			len(found), optionFields, strings.Join(found, "\n"))
	}
}

// structFields parses every non-test file of the module outside benchmark/
// and testdata/ and lists, as "file:line:col name", each named struct field
// that keep accepts; keep sees the package the field is declared in and the
// name of its struct type ("" for a struct literal type).
func structFields(t *testing.T, keep func(pkg, typ string, fld *ast.Field, name string) bool) []string {
	t.Helper()
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
		typeName := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					typeName[st] = ts.Name.Name
				}
			}
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if keep(f.Name.Name, typeName[st], fld, name.Name) {
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
	return found
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
