// Command repro-lint runs the repository's one custom analyzer,
// internal/lint/errreturn, which rejects call statements that silently
// discard an error result (a dropped Close on a written artifact is a
// durability bug no test sees). It loads the packages matching the given
// patterns, prints one file:line:col: errreturn: message line per finding
// and exits 1 when anything fires (2 when loading fails).
//
// Usage:
//
//	repro-lint [packages]
//
// Patterns default to ./... relative to the current directory. The one way
// to accept a finding is a visible discard, `_ = f()`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/errreturn"
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
	pkgs, err := analysis.Load(wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro-lint: %v\n", err)
		return 2
	}

	diags, err := analysis.Run(errreturn.Analyzer, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro-lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repro-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
