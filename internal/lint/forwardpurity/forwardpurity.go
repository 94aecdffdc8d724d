// Package forwardpurity enforces the inference-purity contract of the dnn
// layer stack: Forward and ForwardBatch must not write receiver state
// except on the training path. The program's two forward paths are
// Forward and ForwardBatchFused (the per-sample fan-out ForwardBatch is
// bench-and-test-only); the fused executor fans samples out over *shared*
// layers, so an eval-time receiver write is a data race and a determinism
// bug — the
// exact class PR 1 removed by hand when Conv cached lastInput
// unconditionally (`l.lastInput = x` outside the train guard).
//
// The analyzer applies to packages named dnn. Within every method named
// Forward or ForwardBatch it flags
//
//   - assignments through the receiver (l.f = x, l.f.g[i] = v, l.f++),
//     and
//   - calls to same-package methods through the receiver (l.helper(),
//     l.field.Method()) whose call trees contain such a write,
//
// unless the write is guarded to the training path. A write counts as
// guarded when it sits inside `if train { ... }` (or `train && ...`), in
// the else-branch of `if !train`, or after an early `if !train { return }`
// — train being the method's bool parameter. Methods without a bool
// parameter (pure-inference entry points like ForwardBatch) allow no
// receiver writes at all.
//
// Impurity crosses package boundaries through facts: the analyzer runs
// on every package, summarizes each method ("writes its receiver
// unguarded somewhere in its call tree") and exports an ImpureFact on
// it. When a dnn Forward later calls a method of an imported type
// through the receiver (l.cache.Put(x) with Put defined elsewhere), the
// imported fact makes the call tree impure and the call is reported —
// the PR 1 Conv.lastInput shape no longer hides behind a package split.
//
// Known boundary: writes through aliases (`p := l.cache; p.x = v`) are
// not tracked; the race detector job remains the backstop for those.
package forwardpurity

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer flags eval-time receiver-state writes in Forward/ForwardBatch
// call trees.
var Analyzer = &analysis.Analyzer{
	Name: "forwardpurity",
	Doc:  "in dnn layer types, forbid receiver-state writes on the inference path of Forward/ForwardBatch (train-guarded writes are allowed); impurity propagates across packages via facts",
	Run:  run,
}

// ImpureFact marks a method whose call tree writes its receiver state
// outside a train guard. It carries no payload; its presence is the
// fact.
type ImpureFact struct{}

// AFact marks ImpureFact as an analysis fact.
func (*ImpureFact) AFact() {}

// methodFacts summarizes one method body for the package-level fixpoint.
type methodFacts struct {
	decl *ast.FuncDecl
	// writes are unguarded receiver-state assignments.
	writes []token.Pos
	// calls are unguarded receiver-rooted calls to same-package methods.
	calls []recvCall
	// impure is resolved by the fixpoint: the method's call tree contains
	// an unguarded receiver write.
	impure bool
}

type recvCall struct {
	pos    token.Pos
	callee *types.Func
}

func run(pass *analysis.Pass) error {
	// Summarize every package, not only dnn: methods of imported packages
	// must export their impurity for dnn call trees to see it.
	facts := make(map[*types.Func]*methodFacts)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			facts[obj] = summarize(pass, fn)
		}
	}

	// impureCallee resolves a call's impurity: same-package callees from
	// the local fixpoint state, imported callees from their exported fact.
	impureCallee := func(c recvCall) bool {
		if callee, ok := facts[c.callee]; ok {
			return callee.impure
		}
		var fact ImpureFact
		return pass.ImportObjectFact(c.callee, &fact)
	}

	// Fixpoint: impurity propagates backwards over unguarded receiver
	// calls until nothing changes. Imported callees are already resolved
	// (dependencies run first), so only local edges iterate.
	for changed := true; changed; {
		changed = false
		for _, mf := range facts {
			if mf.impure {
				continue
			}
			impure := len(mf.writes) > 0
			for _, c := range mf.calls {
				if impureCallee(c) {
					impure = true
				}
			}
			if impure {
				mf.impure = true
				changed = true
			}
		}
	}

	// Export so dependent packages see this package's impure methods.
	for obj, mf := range facts {
		if mf.impure {
			pass.ExportObjectFact(obj, &ImpureFact{})
		}
	}

	// Diagnostics stay scoped to the dnn layer stack.
	if pass.Pkg.Name() != "dnn" {
		return nil
	}
	for obj, mf := range facts {
		name := obj.Name()
		if name != "Forward" && name != "ForwardBatch" {
			continue
		}
		for _, pos := range mf.writes {
			pass.Reportf(pos, "%s writes receiver state on the inference path; shared networks race on this field — guard with the train parameter or move the cache out of the layer", name)
		}
		for _, c := range mf.calls {
			if impureCallee(c) {
				pass.Reportf(c.pos, "%s calls %s on the inference path, whose call tree writes receiver state; guard the call with the train parameter", name, c.callee.Name())
			}
		}
	}
	return nil
}

// summarize walks one method body recording unguarded receiver writes and
// receiver-rooted calls.
func summarize(pass *analysis.Pass, fn *ast.FuncDecl) *methodFacts {
	mf := &methodFacts{decl: fn}
	recv := receiverObj(pass, fn)
	if recv == nil {
		return mf
	}
	train := trainParam(pass, fn)
	w := &walker{pass: pass, recv: recv, train: train, mf: mf}
	w.stmts(fn.Body.List, false)
	return mf
}

// walker carries the guarded flag through a structured statement walk.
type walker struct {
	pass  *analysis.Pass
	recv  types.Object
	train types.Object
	mf    *methodFacts
}

// stmts walks a statement list. Once an `if !train { return }` statement
// passes, the remainder of the list is train-only.
func (w *walker) stmts(list []ast.Stmt, guarded bool) {
	for _, s := range list {
		w.stmt(s, guarded)
		if ifs, ok := s.(*ast.IfStmt); ok && !guarded {
			if w.condKind(ifs.Cond) == condTrainNeg && terminates(ifs.Body) {
				guarded = true
			}
		}
	}
}

type condKind int

const (
	condOther    condKind = iota
	condTrainPos          // true only when train is true (train, train && x)
	condTrainNeg          // true whenever train is false (!train, !train || x)
)

func (w *walker) condKind(cond ast.Expr) condKind {
	switch e := ast.Unparen(cond).(type) {
	case *ast.Ident:
		if w.train != nil && w.pass.TypesInfo.Uses[e] == w.train {
			return condTrainPos
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT && w.condKind(e.X) == condTrainPos {
			return condTrainNeg
		}
	case *ast.BinaryExpr:
		l, r := w.condKind(e.X), w.condKind(e.Y)
		switch e.Op {
		case token.LAND:
			if l == condTrainPos || r == condTrainPos {
				return condTrainPos
			}
		case token.LOR:
			if l == condTrainNeg || r == condTrainNeg {
				return condTrainNeg
			}
		}
	}
	return condOther
}

func (w *walker) stmt(s ast.Stmt, guarded bool) {
	switch st := s.(type) {
	case nil:
	case *ast.IfStmt:
		w.stmt(st.Init, guarded)
		w.expr(st.Cond, guarded)
		switch w.condKind(st.Cond) {
		case condTrainPos:
			w.stmts(st.Body.List, true)
			w.stmt(st.Else, guarded)
		case condTrainNeg:
			w.stmts(st.Body.List, guarded)
			w.stmt(st.Else, true)
		default:
			w.stmts(st.Body.List, guarded)
			w.stmt(st.Else, guarded)
		}
	case *ast.BlockStmt:
		w.stmts(st.List, guarded)
	case *ast.ForStmt:
		w.stmt(st.Init, guarded)
		w.expr(st.Cond, guarded)
		w.stmt(st.Post, guarded)
		w.stmts(st.Body.List, guarded)
	case *ast.RangeStmt:
		w.expr(st.X, guarded)
		w.stmts(st.Body.List, guarded)
	case *ast.SwitchStmt:
		w.stmt(st.Init, guarded)
		w.expr(st.Tag, guarded)
		w.stmts(st.Body.List, guarded)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init, guarded)
		w.stmt(st.Assign, guarded)
		w.stmts(st.Body.List, guarded)
	case *ast.CaseClause:
		for _, e := range st.List {
			w.expr(e, guarded)
		}
		w.stmts(st.Body, guarded)
	case *ast.SelectStmt:
		w.stmts(st.Body.List, guarded)
	case *ast.CommClause:
		w.stmt(st.Comm, guarded)
		w.stmts(st.Body, guarded)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, guarded)
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			if !guarded && w.rootsAtReceiver(lhs) {
				w.mf.writes = append(w.mf.writes, lhs.Pos())
			}
			w.expr(lhs, guarded)
		}
		for _, rhs := range st.Rhs {
			w.expr(rhs, guarded)
		}
	case *ast.IncDecStmt:
		if !guarded && w.rootsAtReceiver(st.X) {
			w.mf.writes = append(w.mf.writes, st.X.Pos())
		}
		w.expr(st.X, guarded)
	case *ast.ExprStmt:
		w.expr(st.X, guarded)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.expr(e, guarded)
		}
	case *ast.DeferStmt:
		w.expr(st.Call, guarded)
	case *ast.GoStmt:
		w.expr(st.Call, guarded)
	case *ast.SendStmt:
		w.expr(st.Chan, guarded)
		w.expr(st.Value, guarded)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, guarded)
					}
				}
			}
		}
	}
}

// expr records unguarded receiver-rooted method calls found in e.
func (w *walker) expr(e ast.Expr, guarded bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !w.rootsAtReceiver(sel.X) {
			return true
		}
		callee, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || guarded {
			return true
		}
		w.mf.calls = append(w.mf.calls, recvCall{pos: call.Pos(), callee: callee})
		return true
	})
}

// rootsAtReceiver reports whether the lvalue/selector chain e bottoms out
// at the method receiver (l, l.f, l.f.g[i], (*l).f, ...).
func (w *walker) rootsAtReceiver(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return w.pass.TypesInfo.Uses[v] == w.recv
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return false
		}
	}
}

// receiverObj returns the object of fn's receiver variable.
func receiverObj(pass *analysis.Pass, fn *ast.FuncDecl) types.Object {
	if len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}

// trainParam returns the method's bool parameter object, preferring one
// literally named train; nil when the method has none.
func trainParam(pass *analysis.Pass, fn *ast.FuncDecl) types.Object {
	var anyBool types.Object
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if basic, ok := obj.Type().(*types.Basic); ok && basic.Kind() == types.Bool {
				if name.Name == "train" {
					return obj
				}
				if anyBool == nil {
					anyBool = obj
				}
			}
		}
	}
	return anyBool
}

// terminates reports whether every path through block transfers control
// out of the enclosing statement list (return, panic, continue, break,
// goto).
func terminates(block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if ident, ok := call.Fun.(*ast.Ident); ok && ident.Name == "panic" {
				return true
			}
		}
	}
	return false
}
