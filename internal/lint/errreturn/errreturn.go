// Package errreturn is a focused errcheck: it flags call statements whose
// error result is silently dropped. A dropped error turns I/O failures
// into silent data corruption — the exact failure mode an approximate-DRAM
// serving stack cannot afford on its artifact and result paths.
//
// The check is deliberately narrower than a full errcheck so that every
// diagnostic is actionable:
//
//   - Only expression statements are flagged (`f()` discarding an error).
//     Explicit discards (`_ = f()`) are visible in the source and allowed;
//     `defer f()` follows the universal close-on-defer idiom and is
//     allowed.
//   - Writes that cannot fail are allowed: fmt printing to stdout/stderr,
//     and writes to bytes.Buffer / strings.Builder (their error results
//     exist only to satisfy io interfaces).
package errreturn

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer flags expression statements that discard an error result.
var Analyzer = &analysis.Analyzer{
	Name: "errreturn",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass.TypesInfo, call) || infallible(pass.TypesInfo, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error result of %s is discarded: handle it or assign to _ explicitly", callName(call))
			return true
		})
	}
	return nil
}

// returnsError reports whether call's results include an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false // conversion or builtin
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// infallible reports whether call belongs to the allowlist of functions
// whose error results are dead by construction.
func infallible(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Methods on bytes.Buffer / strings.Builder never return a non-nil
	// error.
	if selection, ok := info.Selections[sel]; ok {
		recv := selection.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				full := obj.Pkg().Path() + "." + obj.Name()
				if full == "bytes.Buffer" || full == "strings.Builder" {
					return true
				}
			}
		}
		return false
	}
	// Package-level fmt printers.
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" {
		return false
	}
	name := sel.Sel.Name
	if strings.HasPrefix(name, "Print") {
		return true // stdout
	}
	if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
		return infallibleWriter(info, call.Args[0])
	}
	return false
}

// infallibleWriter reports whether e is os.Stdout, os.Stderr, or an
// in-memory writer (bytes.Buffer, strings.Builder) whose Write never
// returns a non-nil error.
func infallibleWriter(info *types.Info, e ast.Expr) bool {
	switch writerType(info, e) {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "os"
}

// writerType resolves e's type to "pkgpath.Name", dereferencing pointers
// and &-operators; "" when it is not a named type.
func writerType(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// callName renders call's function for the diagnostic message.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
