// Package bench is the repository's benchmark: four workloads over the EDEN
// pipeline and its serving stack, four gated end-to-end metrics, and a
// traced mode that attributes time to layers by timing calls into their
// public functions from outside. cmd/bench is its command line;
// cmd/bench/README.md explains the workloads, the metrics and how a layer's
// numbers are expected to move the end-to-end ones.
package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// notePrefix marks the human-readable lines a run prints before its result,
// so the suite can carry them into its record.
const notePrefix = "note: "

// WriteResult prints a run the way the benchmark contract reads it: notes
// and one line per metric for people, then the result object — exactly the
// keys correct, attempted, failed and metrics — as the last line.
func WriteResult(w io.Writer, res *Result) error {
	var b strings.Builder
	for _, note := range res.Notes {
		b.WriteString(notePrefix + note + "\n")
	}
	for _, name := range res.Metrics.names() {
		fmt.Fprintf(&b, "%-34s %16.10g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	if res.TraceFile != "" {
		b.WriteString(notePrefix + "spans written to " + res.TraceFile + "\n")
	}
	line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// say prints to one of the command's streams. A failed write to a terminal
// or a pipe has nowhere to be reported, so the error is dropped — here, once.
func say(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

// Main is cmd/bench. With --workload it makes one run and prints the
// result object as the last line of standard output; without, it runs the
// suite; with -compare it reads two suite records. It returns the exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload and print its result object (default: run the suite)")
		seed     = fs.Uint64("seed", 1, "seed of the generated inputs and request seeds; a workload's i-th suite run uses seed+i")
		seconds  = fs.Float64("seconds", RunSeconds, "measured seconds per run")
		trace    = fs.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics and writes the span file")
		runs     = fs.Int("runs", 1, "suite: runs of each workload")
		out      = fs.String("out", "", "suite: write every run to this JSON record, the input of -compare")
		compare  = fs.Bool("compare", false, "compare two suite records: bench -compare a.json b.json")
		schema   = fs.Bool("schema", false, "print BENCHMARK.json as generated from the schema and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		say(stderr, "%v\n", err)
		return 2
	}
	switch {
	case *schema:
		if err := CheckSchema(); err != nil {
			return fail(err)
		}
		buf, err := BenchmarkJSON()
		if err != nil {
			return fail(err)
		}
		say(stdout, "%s", buf)
		return 0

	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("bench: -compare takes two record files"))
		}
		a, err := LoadRunSet(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := LoadRunSet(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if a.Trace != b.Trace {
			return fail(fmt.Errorf("bench: -compare takes two records of one kind, both traced or both untraced"))
		}
		if !Compare(stdout, a, b) {
			return 1
		}
		return 0

	case *workload != "":
		// A hung run must not outlive the contract's 180 s: abort by name at
		// three times the workload's budget. The run's directory under
		// .bench_build stays behind; nothing reads it.
		limit := min(3*budget(*workload, *seconds), 170*time.Second)
		watchdog := time.AfterFunc(limit, func() {
			say(stderr, "bench: watchdog: workload %s still running after %s (3x its budget); aborting\n", *workload, limit)
			os.Exit(3)
		})
		defer watchdog.Stop()
		res, err := Run(Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Log: stderr})
		if err != nil {
			return fail(err)
		}
		if err := WriteResult(stdout, res); err != nil {
			return fail(err)
		}
		if !res.Correct {
			return 1
		}
		return 0
	}

	ok, err := RunSuite(SuiteOptions{Runs: *runs, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Out: *out}, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	if !ok {
		say(stderr, "bench: a run reported incorrect output\n")
		return 1
	}
	return 0
}
