// Package loopcapture enforces the index-addressed ownership contract
// for concurrent tasks: closures launched with `go` or handed to the
// parallel pool (parallel.For / ForEach / Do) must write results only to
// cells they own.
//
// Two shapes are flagged inside such task closures:
//
//  1. A write to a captured slice at an index that uses no variable of
//     the closure's own or of an enclosing loop. Every concurrent task
//     then writes the same cell — a data race the per-index ownership
//     discipline (out[i] = f(in[i]) with i the task's own index) exists
//     to prevent. Loop variables have per-iteration lifetimes under the
//     go 1.22 that go.mod declares, so capturing one is not flagged and
//     an index built from one varies per task.
//  2. Any write to a captured map. Map writes are never goroutine-safe;
//     collect per-task results in an index-owned slice and merge after
//     the join.
package loopcapture

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags non-owned shared writes in goroutine and pool-task
// closures.
var Analyzer = &analysis.Analyzer{
	Name: "loopcapture",
	Doc:  "goroutine/pool-task closures must write shared slices only at task-owned indices (captured map writes are always racy)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		walk(pass, f, nil)
	}
	return nil
}

// walk descends through n tracking the variables of enclosing loops and
// checking each task closure it encounters against them.
func walk(pass *analysis.Pass, n ast.Node, loopVars []types.Object) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ForStmt:
			vars := loopVars
			if init, ok := node.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							vars = append(vars, obj)
						}
					}
				}
			}
			if node.Init != nil {
				walk(pass, node.Init, loopVars)
			}
			if node.Cond != nil {
				walk(pass, node.Cond, vars)
			}
			if node.Post != nil {
				walk(pass, node.Post, vars)
			}
			walk(pass, node.Body, vars)
			return false
		case *ast.RangeStmt:
			walk(pass, node.X, loopVars)
			vars := loopVars
			for _, e := range []ast.Expr{node.Key, node.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						vars = append(vars, obj)
					}
				}
			}
			walk(pass, node.Body, vars)
			return false
		case *ast.GoStmt:
			if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
				checkTask(pass, lit, loopVars, "goroutine")
			}
			// Normal descent covers the arguments and the closure body
			// (whose own nested loops and tasks are checked in turn).
			return true
		case *ast.CallExpr:
			if isPoolCall(pass, node) {
				for _, arg := range node.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkTask(pass, lit, loopVars, "pool task")
					}
				}
			}
			return true
		}
		return true
	})
}

// isPoolCall reports whether call invokes parallel.For, ForEach or Do.
func isPoolCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "parallel" {
		return false
	}
	switch fn.Name() {
	case "For", "ForEach", "Do":
		return true
	}
	return false
}

// checkTask applies the two rules to one task closure.
func checkTask(pass *analysis.Pass, lit *ast.FuncLit, loopVars []types.Object, kind string) {
	// Everything defined inside the literal (parameters included) is
	// task-local and safe to use.
	locals := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})

	// An index built from a loop variable varies per task, so for the
	// shared-write rule loop vars count as ownership-carrying.
	owned := make(map[types.Object]bool, len(locals)+len(loopVars))
	for obj := range locals {
		owned[obj] = true
	}
	for _, v := range loopVars {
		owned[v] = true
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkSharedWrite(pass, lhs, locals, owned, kind)
			}
		case *ast.IncDecStmt:
			checkSharedWrite(pass, n.X, locals, owned, kind)
		}
		return true
	})
}

// checkSharedWrite flags lhs when it writes a captured map, or a
// captured slice at an index with no ownership-carrying component.
func checkSharedWrite(pass *analysis.Pass, lhs ast.Expr, locals, owned map[types.Object]bool, kind string) {
	ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	root := rootObject(pass, ix.X)
	if root == nil || locals[root] {
		return
	}
	tv, ok := pass.TypesInfo.Types[ix.X]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lhs.Pos(), "%s writes captured map %s; map writes race — collect per-task results and merge after the join", kind, root.Name())
	case *types.Slice, *types.Array, *types.Pointer:
		if !usesLocal(pass, ix.Index, owned) {
			pass.Reportf(lhs.Pos(), "%s writes captured slice %s at an index with no task-local component; concurrent tasks race on the same cell", kind, root.Name())
		}
	}
}

// rootObject unwraps selector/index/deref chains to the base identifier's
// object.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// usesLocal reports whether e references any task-local variable.
func usesLocal(pass *analysis.Pass, e ast.Expr, locals map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && locals[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
