package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint/analysis"
)

// buildFunc type-checks src and returns the CFG, type info and AST of
// its first function declaration.
func buildFunc(t *testing.T, src string) (*analysis.CFG, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
			return analysis.NewCFG(fn.Body), info, fn
		}
	}
	t.Fatal("no function in source")
	return nil, nil, nil
}

// paramIdents collects the parameter idents of fn.
func paramIdents(fn *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	for _, fld := range fn.Type.Params.List {
		out = append(out, fld.Names...)
	}
	return out
}

// nthUse returns the n-th (0-based) ident named name that the type
// checker recorded as a use inside fn.
func nthUse(t *testing.T, info *types.Info, fn *ast.FuncDecl, name string, n int) *ast.Ident {
	t.Helper()
	var found *ast.Ident
	seen := 0
	ast.Inspect(fn.Body, func(node ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := node.(*ast.Ident); ok && id.Name == name && info.Uses[id] != nil {
			if seen == n {
				found = id
				return false
			}
			seen++
		}
		return true
	})
	if found == nil {
		t.Fatalf("no use #%d of %q in function", n, name)
	}
	return found
}

func TestReachingDefsKill(t *testing.T) {
	c, info, fn := buildFunc(t, `package p
func f() int {
	x := 1
	x = 2
	return x
}`)
	rd := analysis.NewReachingDefs(c, info, nil)
	// Use #0 of x is the LHS of "x = 2" (a plain assignment target is a
	// use in types.Info); #1 is the x in "return x".
	defs := rd.At(nthUse(t, info, fn, "x", 1))
	if len(defs) != 1 {
		t.Fatalf("straight-line reassignment: want exactly 1 reaching def, got %d", len(defs))
	}
	as, ok := defs[0].Node.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN {
		t.Errorf("the surviving def should be the plain assignment x = 2, got %T", defs[0].Node)
	}
}

func TestReachingDefsBranchMerge(t *testing.T) {
	c, info, fn := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`)
	rd := analysis.NewReachingDefs(c, info, paramIdents(fn))
	// Use #0 of x is the LHS of "x = 2"; #1 is the x in "return x", which
	// sees both the initial and the branch definition.
	defs := rd.At(nthUse(t, info, fn, "x", 1))
	if len(defs) != 2 {
		t.Fatalf("branch merge: want 2 reaching defs at the return, got %d", len(defs))
	}
}

func TestReachingDefsLoopBackEdge(t *testing.T) {
	c, info, fn := buildFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`)
	rd := analysis.NewReachingDefs(c, info, paramIdents(fn))
	// The s on the right of "s = s + i" is reached by the initial def and,
	// via the loop back edge, by the loop's own assignment.
	defs := rd.At(nthUse(t, info, fn, "s", 0))
	if len(defs) != 2 {
		t.Fatalf("loop back edge: want 2 reaching defs for s inside the loop, got %d", len(defs))
	}
}

func TestReachingDefsParam(t *testing.T) {
	c, info, fn := buildFunc(t, `package p
func f(a int) int {
	return a
}`)
	rd := analysis.NewReachingDefs(c, info, paramIdents(fn))
	defs := rd.At(nthUse(t, info, fn, "a", 0))
	if len(defs) != 1 {
		t.Fatalf("parameter: want 1 reaching def, got %d", len(defs))
	}
	if id, ok := defs[0].Node.(*ast.Ident); !ok || id.Name != "a" {
		t.Errorf("parameter def node should be the parameter ident, got %T", defs[0].Node)
	}
}

func TestReachingDefsUntracked(t *testing.T) {
	c, info, fn := buildFunc(t, `package p
var g int
func f() int {
	return g
}`)
	rd := analysis.NewReachingDefs(c, info, nil)
	if defs := rd.At(nthUse(t, info, fn, "g", 0)); defs != nil {
		t.Errorf("package-level variable has no tracked defs; want nil, got %v", defs)
	}
}

func TestBitSetOps(t *testing.T) {
	a := analysis.NewBitSet(130)
	a.Set(0)
	a.Set(64)
	a.Set(129)
	if !a.Has(0) || !a.Has(64) || !a.Has(129) || a.Has(1) || a.Has(128) {
		t.Fatal("Set/Has disagree on bits 0, 1, 64, 128, 129")
	}
	b := a.Copy()
	b.Clear(64)
	if !a.Has(64) {
		t.Error("Copy must be independent of the original")
	}
	if b.Has(64) {
		t.Error("Clear(64) did not remove the bit")
	}
	if changed := b.UnionWith(a); !changed || !b.Has(64) {
		t.Error("UnionWith should restore bit 64 and report a change")
	}
	if changed := b.UnionWith(a); changed {
		t.Error("UnionWith with a subset must report no change")
	}
	if !b.Equal(a) {
		t.Error("after the union b should equal a")
	}
	if b.Clear(0); b.Equal(a) {
		t.Error("Equal must see a cleared bit")
	}
}
