// Command experiments regenerates the paper's tables and figures using the
// EDEN reproduction. Run with no arguments for every report, or pass report
// names (the index is experiments.Runners); an unknown name exits 2 and
// lists the valid ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

// selected returns the reports args name, in experiments.Runners' order, or
// all of them for no args; a name that is no report's is an error listing
// the valid ones, so a typo cannot shorten a run silently.
func selected(args []string) ([]experiments.Runner, error) {
	var out []experiments.Runner
	var names []string
	for _, r := range experiments.Runners {
		names = append(names, r.Name)
		if len(args) == 0 || slices.Contains(args, r.Name) {
			out = append(out, r)
		}
	}
	for _, a := range args {
		if !slices.Contains(names, a) {
			return nil, fmt.Errorf("unknown report %q; valid names: %s", a, strings.Join(names, " "))
		}
	}
	return out, nil
}

func main() {
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.Parse()
	parallel.SetWorkers(*workers)
	sel, err := selected(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	failed := false
	for _, r := range sel {
		rep, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			failed = true
			continue
		}
		fmt.Println(rep)
	}
	if failed {
		os.Exit(1)
	}
}
