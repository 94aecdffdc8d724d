// Command repro-lint runs the repository's one custom static check,
// errreturn: it rejects call statements that silently discard an error
// result. A dropped Close on a written artifact is a durability bug no test
// sees, and a dropped error elsewhere turns an I/O failure into silent data
// corruption — the failure mode an approximate-DRAM serving stack cannot
// afford on its artifact and result paths.
//
// It loads the packages matching the given patterns (test files excluded:
// the check covers the shipped sources), prints one
// file:line:col: errreturn: message line per finding, sorted by position,
// and exits 1 when anything fires (2 when loading fails).
//
// Usage:
//
//	repro-lint [packages]
//
// Patterns default to ./... relative to the current directory.
//
// The check is deliberately narrower than a full errcheck, so that every
// finding is actionable:
//
//   - Only expression statements are flagged (`f()` discarding an error).
//     An explicit discard (`_ = f()`) is visible in the source and allowed,
//     and is the one way to accept a finding; `defer f()` follows the
//     close-on-defer idiom and is allowed.
//   - Writes that cannot fail are allowed: fmt printing to stdout, stderr
//     or an in-memory writer, and the methods of bytes.Buffer and
//     strings.Builder (their error results exist only to satisfy io
//     interfaces).
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro-lint: %v\n", err)
		return 2
	}
	fset := token.NewFileSet()
	pkgs, err := load(fset, wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro-lint: %v\n", err)
		return 2
	}

	type finding struct {
		pos token.Position
		msg string
	}
	var found []finding
	for _, p := range pkgs {
		for _, f := range p.files {
			check(p.info, f, func(pos token.Pos, msg string) {
				found = append(found, finding{fset.Position(pos), msg})
			})
		}
	}
	slices.SortFunc(found, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), cmp.Compare(a.pos.Line, b.pos.Line), cmp.Compare(a.pos.Column, b.pos.Column))
	})
	for _, d := range found {
		file := d.pos.Filename
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Printf("%s:%d:%d: errreturn: %s\n", file, d.pos.Line, d.pos.Column, d.msg)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "repro-lint: %d finding(s)\n", len(found))
		return 1
	}
	return 0
}

// pkg is one parsed and type-checked package.
type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// load type-checks the packages matching patterns in dir. Dependencies'
// types come from compiler export data, through `go list -export -deps` —
// the mechanism x/tools' go/packages uses underneath — which keeps loading
// fast and offline with the standard library alone.
func load(fset *token.FileSet, dir string, patterns []string) ([]pkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard, DepOnly       bool
		Error                   *struct{ Err string }
	}
	exports := map[string]string{}
	var targets []listed
	for dec := json.NewDecoder(&stdout); ; {
		var lp listed
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			targets = append(targets, lp)
		}
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		export, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(export)
	})
	var pkgs []pkg
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, 0)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		p, err := typeCheck(fset, imp, t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// typeCheck type-checks files as the package path, resolving imports
// through imp, and records what check reads.
func typeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (pkg, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return pkg{}, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return pkg{types: tpkg, files: files, info: info}, nil
}

// check reports every expression statement in file that calls a function
// with an error result and is not on the allowlist of calls whose error is
// dead by construction.
func check(info *types.Info, file *ast.File, report func(pos token.Pos, msg string)) {
	ast.Inspect(file, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if ok && returnsError(info, call) && !infallible(info, call) {
			report(call.Pos(), fmt.Sprintf("error result of %s is discarded: handle it or assign to _ explicitly", callName(call)))
		}
		return true
	})
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
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// infallible reports whether call is a method of bytes.Buffer or
// strings.Builder, fmt.Print*, or fmt.Fprint* to an infallible writer.
func infallible(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if selection, ok := info.Selections[sel]; ok {
		return inMemory(selection.Recv())
	}
	if imported(info, sel.X) != "fmt" {
		return false
	}
	if strings.HasPrefix(sel.Sel.Name, "Print") {
		return true // stdout
	}
	if !strings.HasPrefix(sel.Sel.Name, "Fprint") || len(call.Args) == 0 {
		return false
	}
	w := call.Args[0]
	if tv, ok := info.Types[w]; ok && inMemory(tv.Type) {
		return true
	}
	std, ok := w.(*ast.SelectorExpr)
	return ok && (std.Sel.Name == "Stdout" || std.Sel.Name == "Stderr") && imported(info, std.X) == "os"
}

// inMemory reports whether t is bytes.Buffer or strings.Builder, or a
// pointer to one: writers whose methods never return a non-nil error.
func inMemory(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	full := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return full == "bytes.Buffer" || full == "strings.Builder"
}

// imported returns the path of the package e names, or "" when e is not a
// package name.
func imported(info *types.Info, e ast.Expr) string {
	if ident, ok := e.(*ast.Ident); ok {
		if pkgName, ok := info.Uses[ident].(*types.PkgName); ok {
			return pkgName.Imported().Path()
		}
	}
	return ""
}

// callName renders call's function for the finding's message.
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
