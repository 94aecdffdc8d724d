// Package rngstream enforces the per-goroutine RNG stream discipline:
// a task closure launched with `go` or through the parallel pool must
// not draw from an RNG it captured. The deterministic-replay contract
// splits the parent RNG into per-task streams *before* the fan-out
// (streams := rng.SplitN(n)) and each task uses only its own stream —
// a captured RNG shared across tasks gives schedule-dependent results
// (and races, since RNG state mutates on every draw).
//
// Inside a task closure every method call on an RNG-typed value is
// traced through every assignment the closure makes — nested closures
// included — to each local it reads: `=`, `:=`, var declarations and
// range keys/values. The receiver is legal when it
//
//   - is a parameter of the closure,
//   - indexes a captured slice with a task-local index
//     (streams[i] — the SplitN idiom), or
//   - comes from NewRNG (a fresh, task-seeded generator),
//
// and a local is legal only when every value ever bound to it is. The
// check is flow-insensitive: a local once bound to a shared RNG is
// reported even if it is rebound to a per-task stream before the draw
// (give the per-task stream a new name). Everything else — using the
// captured RNG directly, copying it into a local, or calling
// Split/SplitN *inside* the task (which mutates the shared parent) — is
// reported.
package rngstream

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags shared-RNG draws inside goroutine and pool-task
// closures.
var Analyzer = &analysis.Analyzer{
	Name: "rngstream",
	Doc:  "goroutine/pool-task closures must draw only from per-task RNG streams (SplitN before the fan-out, NewRNG, or a closure parameter) — never from a captured RNG",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkTask(pass, lit)
				}
			case *ast.CallExpr:
				if isPoolCall(pass, n) {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkTask(pass, lit)
						}
					}
				}
			}
			return true
		})
	}
	return nil
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

// checkTask verifies every RNG method call in one task closure.
func checkTask(pass *analysis.Pass, lit *ast.FuncLit) {
	tr := &tracer{pass: pass, locals: make(map[types.Object]bool), assigns: make(map[types.Object][]ast.Node)}
	record := func(lhs ast.Expr, n ast.Node) {
		if id, ok := lhs.(*ast.Ident); ok {
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				tr.assigns[obj] = append(tr.assigns[obj], n)
			}
		}
	}
	ast.Inspect(lit, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Defs[n]; obj != nil {
				tr.locals[obj] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				record(lhs, n)
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				record(name, n)
			}
		case *ast.RangeStmt:
			record(n.Key, n)
			record(n.Value, n)
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isRNG(pass, sel.X) {
			return true
		}
		if !tr.derivedPerTask(sel.X, 0) {
			pass.Reportf(call.Pos(), "pool task draws from RNG %s, which is not a per-task stream; SplitN before the fan-out and index the streams by task (or use NewRNG with a task-local seed)", exprName(sel.X))
		}
		return true
	})
}

// isRNG reports whether e's type is tensor.RNG (by name, so fixtures
// can model it) or a pointer to it.
func isRNG(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "RNG"
}

// tracer answers "does this receiver expression hold a per-task RNG?"
// from every assignment the task closure makes to each of its locals.
type tracer struct {
	pass    *analysis.Pass
	locals  map[types.Object]bool
	assigns map[types.Object][]ast.Node
}

func (tr *tracer) derivedPerTask(recv ast.Expr, depth int) bool {
	if depth > 5 {
		return false
	}
	switch e := ast.Unparen(recv).(type) {
	case *ast.Ident:
		obj := tr.pass.TypesInfo.Uses[e]
		if obj == nil || !tr.locals[obj] {
			return false // captured or package-level: shared state
		}
		// A closure parameter has no assignment and is per-task as it
		// stands; any other local is per-task only if all its bindings are.
		for _, n := range tr.assigns[obj] {
			if !tr.defOK(n, obj, depth) {
				return false
			}
		}
		return true
	case *ast.IndexExpr:
		// streams[i] style receiver: fine when the index is task-local.
		return tr.localIndex(e)
	case *ast.CallExpr:
		return tr.sourceOK(e, depth)
	}
	return false
}

// defOK checks one assignment n of obj. A range key or value is never
// per-task: for _, r := range streams hands every task the full set.
func (tr *tracer) defOK(n ast.Node, obj types.Object, depth int) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		rhs := rhsFor(n, obj, tr.pass)
		return rhs != nil && tr.rhsOK(rhs, depth)
	case *ast.ValueSpec:
		if len(n.Values) != len(n.Names) {
			return false
		}
		for i, name := range n.Names {
			if tr.pass.TypesInfo.Defs[name] == obj {
				return tr.rhsOK(n.Values[i], depth)
			}
		}
	}
	return false
}

// rhsOK checks whether expr produces a per-task RNG.
func (tr *tracer) rhsOK(expr ast.Expr, depth int) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.IndexExpr:
		return tr.localIndex(e)
	case *ast.UnaryExpr:
		if inner, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
			return tr.localIndex(inner)
		}
		return false
	case *ast.CallExpr:
		return tr.sourceOK(e, depth)
	case *ast.Ident:
		return tr.derivedPerTask(e, depth+1)
	}
	return false
}

// localIndex reports whether ix's index expression references a
// task-local variable — the per-index ownership test.
func (tr *tracer) localIndex(ix *ast.IndexExpr) bool {
	found := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := tr.pass.TypesInfo.Uses[id]; obj != nil && tr.locals[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// sourceOK accepts NewRNG(...) always, and Split/SplitN only on a
// receiver that is itself per-task (splitting the shared parent inside
// the task mutates state every sibling reads).
func (tr *tracer) sourceOK(call *ast.CallExpr, depth int) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "NewRNG"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "NewRNG":
			return true
		case "Split", "SplitN":
			return tr.derivedPerTask(fun.X, depth+1)
		}
	}
	return false
}

// rhsFor finds the RHS expression assigned to obj in a (possibly
// multi-value) assignment; nil for tuple assignments from calls.
func rhsFor(as *ast.AssignStmt, obj types.Object, pass *analysis.Pass) ast.Expr {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if pass.TypesInfo.Defs[id] == obj || pass.TypesInfo.Uses[id] == obj {
				return as.Rhs[i]
			}
		}
	}
	return nil
}

// exprName renders a short name for diagnostics.
func exprName(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprName(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprName(v.X) + "[...]"
	case *ast.StarExpr:
		return exprName(v.X)
	}
	return "<rng>"
}
