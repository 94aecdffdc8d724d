package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// HostInfo says where a set of runs was measured.
type HostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Workers    int    `json:"workers"`
	Backend    string `json:"backend"`
}

// RunSet is the record the suite writes and the comparer reads: every run
// of every workload, never an aggregate. A set is traced or untraced as a
// whole, because -trace applies to the suite.
type RunSet struct {
	Host    HostInfo  `json:"host"`
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Runs    []*Result `json:"runs"`
}

func hostInfo() HostInfo {
	p := ProgramDefaults()
	return HostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH, Workers: p.Workers, Backend: p.Backend,
	}
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// SuiteOptions sizes a suite: Runs runs of every workload, run i using seed
// Seed+i, each in a fresh process so set-up is always cold.
type SuiteOptions struct {
	Runs    int
	Seed    uint64
	Seconds float64
	Trace   bool
	Out     string // RunSet file to write; "" writes none
}

// childLimit is how long the suite lets one run take, the same limit the
// benchmark contract sets.
const childLimit = 180 * time.Second

// RunSuite runs every workload Runs times by re-executing this binary with
// --workload, prints each run as it completes and the medians at the end.
// It returns false when any run reported incorrect output.
func RunSuite(opt SuiteOptions, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := RunSet{Host: hostInfo(), Seconds: opt.Seconds, Trace: opt.Trace}
	allCorrect := true
	// Workload by workload, as the acceptance check runs them: a workload's
	// spread is then taken over runs that are minutes, not an hour, apart.
	for _, w := range Workloads {
		for i := 0; i < opt.Runs; i++ {
			seed := opt.Seed + uint64(i)
			res, err := runChild(self, w.Name, seed, opt.Seconds, opt.Trace, stderr)
			if err != nil {
				return false, fmt.Errorf("bench: %s seed %d: %w", w.Name, seed, err)
			}
			set.Runs = append(set.Runs, res)
			allCorrect = allCorrect && res.Correct
			say(stdout, "%-17s seed %-4d %s\n", w.Name, seed, summary(res))
			for _, note := range res.Notes {
				say(stdout, "    %s\n", note)
			}
		}
	}
	printMedians(stdout, set)
	if opt.Out != "" {
		buf, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(opt.Out, append(buf, '\n'), 0o644); err != nil {
			return false, err
		}
		say(stdout, "wrote %s\n", opt.Out)
	}
	return allCorrect, nil
}

// runChild executes one run in its own process and parses what it printed.
func runChild(self, workload string, seed uint64, seconds float64, trace bool, stderr io.Writer) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childLimit)
	defer cancel()
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run() // Run waits for the child, also after the context killed it
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || line.Metrics == nil {
		if runErr != nil {
			return nil, fmt.Errorf("run failed without a result: %w", runErr)
		}
		return nil, fmt.Errorf("last line of output is not a result: %q", lines[len(lines)-1])
	}
	res := &Result{
		Workload: workload, Seed: seed, Trace: trace,
		Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics,
	}
	for _, l := range lines[:len(lines)-1] {
		if note, ok := strings.CutPrefix(l, notePrefix); ok {
			res.Notes = append(res.Notes, note)
		}
	}
	return res, nil
}

// summary renders a run's end-to-end metrics (or, traced, its size) on one
// line.
func summary(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	if res.Trace {
		fmt.Fprintf(&b, " (%d per-layer metrics)", len(res.Metrics))
		return b.String()
	}
	for _, d := range EndToEnd {
		fmt.Fprintf(&b, "  %s=%.4g%s", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return b.String()
}

// group collects the values of each metric per workload, in run order.
func group(set RunSet) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range set.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for _, name := range r.Metrics.names() {
			out[r.Workload][name] = append(out[r.Workload][name], r.Metrics[name].Value)
		}
	}
	return out
}

// printMedians prints, per workload, every metric's median over the set's
// runs with its unit, and for end-to-end metrics the spread next to the
// bound it has to stay under.
func printMedians(w io.Writer, set RunSet) {
	byWorkload := group(set)
	defs := EndToEnd
	if set.Trace {
		defs = PerLayer
	}
	for _, wl := range Workloads {
		vals := byWorkload[wl.Name]
		say(w, "\n%s (%d runs, median)\n", wl.Name, len(vals[defs[0].Name]))
		for _, d := range defs {
			v := vals[d.Name]
			say(w, "  %-34s %14.6g %-7s", d.Name, Median(v), d.Unit)
			if d.Bound > 0 && len(v) >= 2 {
				say(w, " spread %5.1f%% of bound %2.0f%%", 100*Spread(v), 100*d.Bound)
			}
			say(w, "\n")
		}
	}
}
