package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// taintFact marks a function as tainted in the exporting package.
type taintFact struct{ Note string }

func (*taintFact) AFact() {}

// memImporter type-checks an ordered set of in-memory packages so tests
// can exercise cross-package fact flow without fixtures on disk.
type memImporter struct {
	fset *token.FileSet
	pkgs map[string]*analysis.Package
}

func checkPackages(t *testing.T, srcs []struct{ path, src string }) ([]*analysis.Package, *token.FileSet) {
	t.Helper()
	imp := &memImporter{fset: token.NewFileSet(), pkgs: make(map[string]*analysis.Package)}
	var out []*analysis.Package
	for _, s := range srcs {
		f, err := parser.ParseFile(imp.fset, s.path+".go", s.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", s.path, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(s.path, imp.fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", s.path, err)
		}
		pkg := analysis.NewPackage(s.path, ".", imp.fset, []*ast.File{f}, tpkg, info)
		imp.pkgs[s.path] = pkg
		out = append(out, pkg)
	}
	return out, imp.fset
}

func (m *memImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg.Types, nil
	}
	return nil, nil
}

// taintAnalyzer exports a taintFact on every function whose name starts
// with "Tainted" and reports every call to a function carrying the fact.
var taintAnalyzer = &analysis.Analyzer{
	Name: "taint",
	Doc:  "test analyzer: cross-package fact propagation",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if strings.HasPrefix(n.Name.Name, "Tainted") {
						if obj, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
							pass.ExportObjectFact(obj, &taintFact{Note: "defined tainted"})
						}
					}
				case *ast.CallExpr:
					var callee types.Object
					switch fun := n.Fun.(type) {
					case *ast.SelectorExpr:
						callee = pass.TypesInfo.Uses[fun.Sel]
					case *ast.Ident:
						callee = pass.TypesInfo.Uses[fun]
					}
					var fact taintFact
					if callee != nil && pass.ImportObjectFact(callee, &fact) {
						pass.Reportf(n.Pos(), "call to tainted function %s (%s)", callee.Name(), fact.Note)
					}
				}
				return true
			})
		}
		return nil
	},
}

const taintSrcA = `package a

func Tainted() {}

func Clean() {}
`

const taintSrcB = `package b

import "a"

func Use() {
	a.Tainted()
	a.Clean()
}
`

func taintFixture() []struct{ path, src string } {
	return []struct{ path, src string }{
		{"a", taintSrcA},
		{"b", taintSrcB},
	}
}

func TestFactsCrossPackage(t *testing.T) {
	pkgs, fset := checkPackages(t, taintFixture())
	diags, err := analysis.Run([]*analysis.Analyzer{taintAnalyzer}, pkgs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic (the a.Tainted() call), got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "Tainted") || !strings.Contains(diags[0].Message, "defined tainted") {
		t.Errorf("diagnostic should carry the decoded fact payload, got %q", diags[0].Message)
	}
	if pos := fset.Position(diags[0].Pos); !strings.HasPrefix(pos.Filename, "b") {
		t.Errorf("diagnostic should land in the importing package, got %s", pos.Filename)
	}
}
