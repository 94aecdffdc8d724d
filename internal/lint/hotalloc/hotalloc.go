// Package hotalloc forbids heap allocations inside the loops of hot
// code: every function of packages named compute (the kernels), and the
// Forward/ForwardBatch/ForwardBatchFused call trees of packages named
// dnn (the program's two forward paths are Forward and ForwardBatchFused;
// ForwardBatch is bench-and-test-only). Per-element allocations in those loops are what the arena
// (compute.slabPool get/put) exists to remove — an alloc inside a
// batch loop turns the O(1)-allocation pipeline the benchmarks measure
// into an O(batch) one and puts GC pauses on the serving path.
//
// Inside a loop of a hot function the analyzer flags
//
//   - make, new and address-taken or slice/map composite literals,
//   - append (growth reallocates; preallocate outside the loop or use
//     the scratch pool), and
//   - function literals that escape (passed as a call argument or
//     assigned to a field, slice, map or channel). A literal that is
//     only bound to a local and invoked does not allocate per
//     iteration, so the kernels' local helper closures stay legal.
//
// Hot functions in dnn are found by a same-package fixpoint seeded at
// Forward, ForwardBatch and ForwardBatchFused: anything those methods
// call (transitively, through idents or receiver selectors) is hot too.
//
// The canonical fix is the existing scratch-slab pattern: hoist the
// allocation out of the loop, or borrow from the sync.Pool arena and
// return the buffer when done. Genuinely cold loops (setup code that
// happens to live in a hot package) carry a //lint:ignore hotalloc
// justification.
package hotalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags per-iteration heap allocations in hot loops.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "forbid heap allocations (make, new, literals, append, escaping closures) inside loops of compute kernels and the dnn Forward call tree",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pkgName := pass.Pkg.Name()
	if pkgName != "compute" && pkgName != "dnn" {
		return nil
	}

	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				decls[obj] = fn
			}
		}
	}

	hot := hotSet(pass, pkgName, decls)
	for obj, fn := range decls {
		if hot[obj] {
			checkFunc(pass, fn)
		}
	}
	return nil
}

// hotSet decides which functions count as hot. In compute every function
// is a kernel or feeds one; in dnn the set is the call-tree closure of
// the forward entry points.
func hotSet(pass *analysis.Pass, pkgName string, decls map[*types.Func]*ast.FuncDecl) map[*types.Func]bool {
	hot := make(map[*types.Func]bool, len(decls))
	if pkgName == "compute" {
		for obj := range decls {
			hot[obj] = true
		}
		return hot
	}
	for obj := range decls {
		switch obj.Name() {
		case "Forward", "ForwardBatch", "ForwardBatchFused":
			hot[obj] = true
		}
	}
	// Fixpoint: every same-package callee of a hot function is hot.
	for changed := true; changed; {
		changed = false
		for obj, fn := range decls {
			if !hot[obj] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var id *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					id = fun
				case *ast.SelectorExpr:
					id = fun.Sel
				default:
					return true
				}
				callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok || hot[callee] {
					return true
				}
				if _, local := decls[callee]; local {
					hot[callee] = true
					changed = true
				}
				return true
			})
		}
	}
	return hot
}

// checkFunc walks fn flagging allocation sites at loop depth >= 1.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	v := &visitor{pass: pass}
	v.walk(fn.Body, 0)
}

type visitor struct {
	pass *analysis.Pass
}

// walk descends through node, tracking how many enclosing loops the
// current position sits in. A FuncLit body inherits the depth of the
// literal: if the literal lives in a loop its body runs per iteration.
func (v *visitor) walk(node ast.Node, depth int) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.ForStmt:
			if n.Init != nil {
				v.walk(n.Init, depth)
			}
			if n.Cond != nil {
				v.walk(n.Cond, depth+1)
			}
			if n.Post != nil {
				v.walk(n.Post, depth+1)
			}
			v.walk(n.Body, depth+1)
			return false
		case *ast.RangeStmt:
			v.walk(n.X, depth)
			v.walk(n.Body, depth+1)
			return false
		default:
			if depth > 0 {
				v.checkNode(n)
			}
			return true
		}
	})
}

// checkNode reports n if it is an allocation site.
func (v *visitor) checkNode(n ast.Node) {
	switch e := n.(type) {
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.Ident:
			if obj, ok := v.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
				switch obj.Name() {
				case "make":
					v.pass.Reportf(e.Pos(), "make in a hot loop allocates per iteration; hoist it out or borrow from the scratch pool")
				case "new":
					v.pass.Reportf(e.Pos(), "new in a hot loop allocates per iteration; hoist it out or borrow from the scratch pool")
				case "append":
					v.pass.Reportf(e.Pos(), "append in a hot loop may reallocate per iteration; preallocate with the right capacity outside the loop")
				}
			}
		}
	case *ast.UnaryExpr:
		// &T{...} — address of a composite literal escapes to the heap.
		if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
			v.pass.Reportf(e.Pos(), "address of a composite literal in a hot loop allocates per iteration; reuse one value declared outside the loop")
		}
	case *ast.CompositeLit:
		// Slice and map literals allocate backing storage; struct and
		// array values may stay on the stack, so only reference kinds
		// are flagged.
		tv, ok := v.pass.TypesInfo.Types[e]
		if !ok || tv.Type == nil {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			v.pass.Reportf(e.Pos(), "slice/map literal in a hot loop allocates per iteration; hoist it out or borrow from the scratch pool")
		}
	case *ast.FuncLit:
		if v.escapes(e) {
			v.pass.Reportf(e.Pos(), "escaping closure in a hot loop allocates per iteration; define it once outside the loop or pass an index instead")
		}
	}
}

// escapes reports whether lit is used in a way that forces a heap
// allocation per evaluation: passed to a call, returned, sent, or stored
// anywhere other than a plain local variable.
func (v *visitor) escapes(lit *ast.FuncLit) bool {
	parent := v.parentOf(lit)
	switch p := parent.(type) {
	case *ast.CallExpr:
		// Argument (escapes into the callee) — but a direct invocation
		// of the literal itself does not allocate per se.
		return p.Fun != lit
	case *ast.AssignStmt:
		// Assignment to a plain local ident keeps it stack-allocated in
		// practice; any other LHS (field, index, deref) stores it away.
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) == lit && i < len(p.Lhs) {
				if _, ok := ast.Unparen(p.Lhs[i]).(*ast.Ident); !ok {
					return true
				}
			}
		}
		return false
	case *ast.ValueSpec:
		return false
	case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.GoStmt, *ast.DeferStmt:
		return true
	}
	return false
}

// parentOf finds the immediate parent node of lit within the current
// file set by re-walking the enclosing file.
func (v *visitor) parentOf(lit *ast.FuncLit) ast.Node {
	for _, f := range v.pass.Files {
		if lit.Pos() < f.Pos() || lit.End() > f.End() {
			continue
		}
		var parent ast.Node
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if n == lit && len(stack) > 0 {
				parent = stack[len(stack)-1]
				return false
			}
			stack = append(stack, n)
			return parent == nil
		})
		if parent != nil {
			return parent
		}
	}
	return nil
}
