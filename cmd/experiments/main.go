// Command experiments regenerates the paper's tables and figures using the
// EDEN reproduction. Run with no arguments for every report, or pass report
// names; an unknown name exits 2 and lists the valid ones.
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

// runner is one report: its command-line name and how to produce it.
type runner struct {
	name string
	run  func() (experiments.Report, error)
}

// runners lists every report in the order they print.
var runners = []runner{
	{"table1", func() (experiments.Report, error) { return experiments.Table1ModelZoo(), nil }},
	{"table2", func() (experiments.Report, error) { return experiments.Table2Baselines(), nil }},
	{"table3", func() (experiments.Report, error) { return experiments.Table3Coarse(nil) }},
	{"fig5", func() (experiments.Report, error) { return experiments.Figure5BERCurves(), nil }},
	{"fig7", experiments.Figure7ModelValidation},
	{"fig8", experiments.Figure8ToleranceCurves},
	{"fig9", experiments.Figure9BoostedOnDevice},
	{"fig10", experiments.Figure10RetrainingAblation},
	{"fig11", experiments.Figure11FineGrained},
	{"fig12", experiments.Figure12Mapping},
	{"fig13", experiments.Figure13CPUEnergy},
	{"fig14", experiments.Figure14CPUSpeedup},
	{"gpu", experiments.Section72GPU},
	{"accel", experiments.Section72Accelerators},
	{"profiling", func() (experiments.Report, error) { return experiments.ProfilingCost(), nil }},
	{"policy", experiments.CorrectionPolicyAblation},
	{"pruning", experiments.PruningAblation},
	{"refresh", experiments.RefreshExtension},
	{"margin", experiments.BoundingMarginAblation},
	{"curriculum", experiments.CurriculumStepAblation},
}

// selected returns the runners args name, in runners' order, or all of them
// for no args; a name that is no report's is an error listing the valid
// ones, so a typo cannot shorten a run silently.
func selected(args []string) ([]runner, error) {
	var out []runner
	var names []string
	for _, r := range runners {
		names = append(names, r.name)
		if len(args) == 0 || slices.Contains(args, r.name) {
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
		rep, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		fmt.Println(rep)
	}
	if failed {
		os.Exit(1)
	}
}
