// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time through a Pass and reports Diagnostics.
// The build environment for this repository is hermetic (no module proxy),
// so instead of importing x/tools the package provides the same shape on
// top of the standard library: go/ast + go/types for inspection, and a
// loader (load.go) that shells out to `go list -export` exactly the way
// x/tools' go/packages does underneath. An analyzer sees one package at a
// time.
//
// Analyzers live in sibling packages (internal/lint/...) and are wired
// into the cmd/repro-lint multichecker. Each encodes one invariant of the
// repository's determinism and parallel-safety contract; see the package
// documentation of each analyzer and the "Static analysis" section of
// README.md.
//
// # Suppression
//
// The one way to silence a diagnostic is a justified ignore directive
// placed either on the flagged line or on the line immediately above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The directive names exactly one analyzer and must carry a non-empty
// reason; it silences diagnostics from that analyzer on one line only.
// Malformed directives (missing analyzer or reason) suppress nothing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects pass.Files and calls pass.Report for each violation.
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

	// ignores maps filename -> line -> the analyzers a //lint:ignore
	// directive silences there, built once per package by the loader and
	// shared by every analyzer pass.
	ignores map[string]map[int][]string

	diagnostics []Diagnostic
}

// Reportf records a formatted diagnostic at pos unless an ignore
// directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Report records d unless a //lint:ignore directive for this analyzer
// sits on d's line or the line above.
func (p *Pass) Report(d Diagnostic) {
	if d.Analyzer == "" {
		d.Analyzer = p.Analyzer.Name
	}
	position := p.Fset.Position(d.Pos)
	if lines, ok := p.ignores[position.Filename]; ok {
		for _, name := range lines[position.Line] {
			if name == d.Analyzer {
				return
			}
		}
	}
	p.diagnostics = append(p.diagnostics, d)
}

// buildIgnoreIndex scans every comment in files for //lint:ignore
// directives and indexes them by file and line. A directive attached to
// line L (the line its comment ends on) covers diagnostics on L and L+1,
// which supports both trailing-comment and line-above placement.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	index := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
				if len(fields) < 2 {
					continue // malformed: needs analyzer and reason
				}
				pos := fset.Position(c.End())
				lines := index[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					index[pos.Filename] = lines
				}
				// Cover the directive's own line and the next one.
				lines[pos.Line] = append(lines[pos.Line], fields[0])
				lines[pos.Line+1] = append(lines[pos.Line+1], fields[0])
			}
		}
	}
	return index
}

// Run applies every analyzer to every package and returns all diagnostics
// sorted by position. Each pass sees one package alone, so pkgs may come in
// any order. The error aggregates analyzer failures (not findings).
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var all []Diagnostic
	var errs []string
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				ignores:   pkg.ignores,
			}
			if err := a.Run(pass); err != nil {
				errs = append(errs, fmt.Sprintf("%s on %s: %v", a.Name, pkg.ImportPath, err))
				continue
			}
			all = append(all, pass.diagnostics...)
		}
	}
	sortDiagnostics(pkgsFset(pkgs), all)
	if len(errs) > 0 {
		return all, fmt.Errorf("analyzer errors:\n  %s", strings.Join(errs, "\n  "))
	}
	return all, nil
}

func pkgsFset(pkgs []*Package) *token.FileSet {
	if len(pkgs) > 0 {
		return pkgs[0].Fset
	}
	return token.NewFileSet()
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
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
