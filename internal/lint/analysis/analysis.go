// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time through a Pass and reports Diagnostics.
// The build environment for this repository is hermetic (no module proxy),
// so instead of importing x/tools the package provides the same shape on
// top of the standard library: go/ast + go/types for inspection, and a
// loader (load.go) that shells out to `go list -export` exactly the way
// x/tools' go/packages does underneath.
//
// Its one analyzer, internal/lint/errreturn, runs under cmd/repro-lint; see
// the "Static analysis" section of README.md. There is no suppression
// directive: a finding is fixed, or its error discarded visibly with `_ =`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a single
	// lower-case word.
	Name string
	// Run inspects pass.Files and calls pass.Reportf for each violation.
	Run func(pass *Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diagnostics = append(p.diagnostics, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Run applies a to every package and returns its diagnostics sorted by
// position. Each pass sees one package alone, so pkgs may come in any
// order. The error is an analyzer failure, not a finding.
func Run(a *Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
		}
		all = append(all, pass.diagnostics...)
	}
	if len(pkgs) > 0 {
		sortDiagnostics(pkgs[0].Fset, all)
	}
	return all, nil
}

func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
