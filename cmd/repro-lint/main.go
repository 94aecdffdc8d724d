// Command repro-lint is the multichecker for the repository's custom
// static-analysis suite (internal/lint): five analyzers — errreturn,
// hotalloc, noclocktime, nomathrand and rngstream — that enforce the
// determinism contract and the durability of written files. It loads the
// packages matching the given patterns, runs every analyzer, prints one
// file:line:col: analyzer: message line per finding and exits non-zero
// when anything fires.
//
// Usage:
//
//	repro-lint [-list] [packages]
//
// Patterns default to ./... relative to the current directory. A finding
// is silenced only by a justified directive on or directly above the
// flagged line:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}

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

	diags, runErr := analysis.Run(analyzers, pkgs)
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", file, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "repro-lint: %v\n", runErr)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repro-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
