// Package lockcheck enforces two mutex rules with the analysis
// framework's CFG and dataflow solver:
//
//  1. No CFG path returns with a lock held. The analyzer runs a forward
//     may-analysis over the function's control-flow graph with two bits
//     per lock — "held" (set by Lock/RLock, cleared by Unlock/RUnlock)
//     and "deferred" (set by defer mu.Unlock()) — and reports any
//     function exit reachable with held and not deferred. This is the
//     shape behind half of the serve-package deadlock reviews: an early
//     return added between Lock and Unlock.
//  2. In packages named serve, no blocking channel operation (send,
//     receive, or a select case without a default) executes while a
//     lock may be held: the scheduler goroutine consumes those channels
//     and may itself need the lock, which deadlocks the server.
//
// A mutex copied by value is go vet's copylocks pass, which `make lint`
// runs.
//
// Locks are identified textually by their selector chain (s.mu); locks
// reached through aliases (m := &s.mu) are not tracked. TryLock is
// ignored — its result makes the held-state conditional, which the
// bit-vector lattice cannot express.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer enforces the mutex discipline.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "forbid returning with a lock held and (in serve) blocking channel operations under a lock",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFlow(pass, fn)
			}
		}
	}
	return nil
}

// lockOpKind classifies one statement's effect on one lock.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opDeferUnlock
)

type lockOp struct {
	key  string
	kind lockOpKind
}

func checkFlow(pass *analysis.Pass, fn *ast.FuncDecl) {
	locks, opsOf := collectLockOps(pass, fn)
	if len(locks) == 0 {
		return
	}
	cfg := analysis.NewCFG(fn.Body)

	// Two bits per lock: held and deferred-unlock-registered.
	held := func(i int) int { return 2 * i }
	deferred := func(i int) int { return 2*i + 1 }
	index := make(map[string]int, len(locks))
	for i, k := range locks {
		index[k] = i
	}
	apply := func(set *analysis.BitSet, n ast.Node) {
		for _, op := range opsOf(n) {
			i := index[op.key]
			switch op.kind {
			case opLock:
				set.Set(held(i))
			case opUnlock:
				set.Clear(held(i))
			case opDeferUnlock:
				set.Set(deferred(i))
			}
		}
	}
	problem := &analysis.FlowProblem{
		CFG:     cfg,
		NBits:   2 * len(locks),
		Forward: true,
		Transfer: func(b *analysis.Block, in *analysis.BitSet) *analysis.BitSet {
			out := in.Copy()
			for _, n := range b.Nodes {
				apply(out, n)
			}
			return out
		},
	}
	in, _ := problem.Solve()

	reach := reachable(cfg)
	checkChans := pass.Pkg.Name() == "serve"
	blocking := blockingChanOps(fn.Body)

	for _, b := range cfg.Blocks {
		if !reach[b.Index] {
			continue
		}
		state := in[b.Index].Copy()
		for _, n := range b.Nodes {
			if checkChans {
				reportBlockedChans(pass, n, state, locks, held, blocking)
			}
			apply(state, n)
		}
		if len(b.Succs) > 0 || endsInPanic(b) {
			continue
		}
		// Function exit: anything still held without a deferred unlock
		// leaks out of the function.
		pos := fn.Body.Rbrace
		if len(b.Nodes) > 0 {
			pos = b.Nodes[len(b.Nodes)-1].Pos()
		}
		for i, key := range locks {
			if state.Has(held(i)) && !state.Has(deferred(i)) {
				pass.Reportf(pos, "a path returns with %s held; unlock before returning or defer the unlock", key)
			}
		}
	}
}

// collectLockOps finds every mutex Lock/Unlock in fn and returns the
// stable list of lock identities plus a lookup of the operations a CFG
// node performs. Function literals are skipped: their bodies do not run
// inline.
func collectLockOps(pass *analysis.Pass, fn *ast.FuncDecl) ([]string, func(ast.Node) []lockOp) {
	var locks []string
	seen := make(map[string]bool)
	nodeOps := make(map[ast.Node][]lockOp)

	classify := func(call *ast.CallExpr) (string, string, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return "", "", false
		}
		callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
			return "", "", false
		}
		switch callee.Name() {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return "", "", false
		}
		key := exprKey(sel.X)
		if key == "" {
			return "", "", false
		}
		return key, callee.Name(), true
	}

	record := func(root ast.Node) []lockOp {
		var ops []lockOp
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if key, name, ok := classify(n.Call); ok && (name == "Unlock" || name == "RUnlock") {
					ops = append(ops, lockOp{key: key, kind: opDeferUnlock})
				}
				return false
			case *ast.CallExpr:
				if key, name, ok := classify(n); ok {
					kind := opUnlock
					if name == "Lock" || name == "RLock" {
						kind = opLock
					}
					ops = append(ops, lockOp{key: key, kind: kind})
				}
			}
			return true
		})
		return ops
	}

	// Eager sweep fixes the lock domain before the solver runs; the
	// per-node operation lists are then served from the cache.
	for _, op := range record(fn.Body) {
		if !seen[op.key] {
			seen[op.key] = true
			locks = append(locks, op.key)
		}
	}
	return locks, func(n ast.Node) []lockOp {
		if ops, ok := nodeOps[n]; ok {
			return ops
		}
		ops := record(n)
		nodeOps[n] = ops
		return ops
	}
}

// exprKey renders a selector chain textually; non-chain expressions
// (call results, composite expressions) are untracked.
func exprKey(e ast.Expr) string {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprKey(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.StarExpr:
		return exprKey(v.X)
	}
	return ""
}

// reachable marks the blocks reachable from the entry block.
func reachable(c *analysis.CFG) []bool {
	out := make([]bool, len(c.Blocks))
	var walk func(b *analysis.Block)
	walk = func(b *analysis.Block) {
		if out[b.Index] {
			return
		}
		out[b.Index] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(c.Blocks) > 0 {
		walk(c.Blocks[0])
	}
	return out
}

// endsInPanic reports whether b's last node is a panic call; such exits
// unwind through deferred unlocks, so they are not "returns with lock
// held".
func endsInPanic(b *analysis.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	call := unwrapCall(b.Nodes[len(b.Nodes)-1])
	if call == nil {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func unwrapCall(n ast.Node) *ast.CallExpr {
	switch v := n.(type) {
	case *ast.CallExpr:
		return v
	case *ast.ExprStmt:
		if call, ok := v.X.(*ast.CallExpr); ok {
			return call
		}
	}
	return nil
}

// blockingChanOps collects the channel-operation nodes of body that can
// block: sends and receives, except the comm statements of select
// statements that carry a default clause.
func blockingChanOps(body *ast.BlockStmt) map[ast.Node]bool {
	// First pass: exempt the comm ops of select-with-default.
	exempt := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(sub ast.Node) bool {
				switch sub.(type) {
				case *ast.SendStmt:
					exempt[sub] = true
				case *ast.UnaryExpr:
					if u := sub.(*ast.UnaryExpr); u.Op == token.ARROW {
						exempt[sub] = true
					}
				}
				return true
			})
		}
		return true
	})

	ops := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !exempt[n] {
				ops[n] = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !exempt[n] {
				ops[n] = true
			}
		}
		return true
	})
	return ops
}

// reportBlockedChans flags the blocking channel ops inside node n while
// any lock may be held.
func reportBlockedChans(pass *analysis.Pass, n ast.Node, state *analysis.BitSet, locks []string, held func(int) int, blocking map[ast.Node]bool) {
	heldKeys := func() []string {
		var out []string
		for i, key := range locks {
			if state.Has(held(i)) {
				out = append(out, key)
			}
		}
		return out
	}
	keys := heldKeys()
	if len(keys) == 0 {
		return
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		if blocking[sub] {
			pass.Reportf(sub.Pos(), "blocking channel operation while holding %s; unlock first — the consumer may need the lock", keys[0])
		}
		return true
	})
}
