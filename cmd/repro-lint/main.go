// Command repro-lint is the multichecker for the repository's custom
// static-analysis suite (internal/lint): six analyzers — errreturn,
// forwardpurity, hotalloc, noclocktime, nomathrand and rngstream — that
// enforce the determinism contract and the durability of written files.
// It loads the packages matching the given patterns, runs every
// analyzer, prints one file:line:col: analyzer: message line per finding
// and exits non-zero when anything fires.
//
// Usage:
//
//	repro-lint [-list] [-analyzers a,b,...] [packages]
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
	"sort"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		only = flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
		list = flag.Bool("list", false, "list available analyzers and exit")
	)
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		valid := make([]string, len(analyzers))
		for i, a := range analyzers {
			valid[i] = a.Name
		}
		selected := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
		var subset []*analysis.Analyzer
		for _, a := range analyzers {
			if selected[a.Name] {
				subset = append(subset, a)
				delete(selected, a.Name)
			}
		}
		if len(selected) > 0 {
			unknown := make([]string, 0, len(selected))
			for name := range selected {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "repro-lint: unknown analyzer(s) %s; valid names are %s\n",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
			return 2
		}
		analyzers = subset
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
