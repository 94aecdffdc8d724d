package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LoadRunSet reads a record written by the suite.
func LoadRunSet(path string) (RunSet, error) {
	var set RunSet
	buf, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(buf, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return set, fmt.Errorf("%s: no runs", path)
	}
	for _, r := range set.Runs {
		if r == nil || r.Trace != set.Trace {
			return set, fmt.Errorf("%s: a record is traced or untraced as a whole, and this one mixes the two", path)
		}
	}
	return set, nil
}

// Verdict is the comparer's reading of one (workload, metric) pair.
type Verdict string

// The comparer's verdicts.
const (
	OK         Verdict = "ok"
	Better     Verdict = "better"
	Regression Verdict = "REGRESSION"
	// Unresolved: the runs of one side are spread wider than the bound, so
	// a difference of medians inside the bound proves nothing either way.
	Unresolved Verdict = "unresolved"
)

// ownSpread is a side's run-to-run spread: Spread for two runs or more, 0
// for a single run, which has none to show.
func ownSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Spread(xs)
}

// Judge compares a metric's runs on side A (the parent) and B (the change).
// worse is the share of A's median by which B's is worse (negative when it
// is better); spread is the wider of the two sides' own spreads
// (interquartile range over median, as the acceptance check takes it). A side
// without values — a record written under another schema — is unresolved.
func Judge(d MetricDef, a, b []float64) (v Verdict, worse, spread float64) {
	if len(a) == 0 || len(b) == 0 {
		return Unresolved, 0, 0
	}
	ma, mb := Median(a), Median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == higher {
			worse = -worse
		}
	}
	spread = max(ownSpread(a), ownSpread(b))
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if d.Better == higher {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case allBetter:
		return Better, worse, spread
	case spread > d.Bound:
		return Unresolved, worse, spread
	case worse > d.Bound:
		return Regression, worse, spread
	default:
		return OK, worse, spread
	}
}

// Compare prints two run sets of one kind side by side and returns false
// when B fails against A. Untraced sets: per workload, every end-to-end
// metric against its bound. Traced sets: the per-layer medians, and any
// exact-repeat count that differs between runs of equal workload and seed.
func Compare(w io.Writer, a, b RunSet) bool {
	say(w, "A: %d runs on %d CPUs, %s    B: %d runs on %d CPUs, %s\n",
		len(a.Runs), a.Host.NumCPU, a.Host.GoVersion, len(b.Runs), b.Host.NumCPU, b.Host.GoVersion)
	if a.Trace {
		return compareLayers(w, a, b)
	}
	pass := true
	ga, gb := group(a), group(b)
	for _, wl := range Workloads {
		va, vb := ga[wl.Name], gb[wl.Name]
		if va == nil || vb == nil {
			continue
		}
		say(w, "\n%s (A %d runs, B %d runs)\n", wl.Name, len(va[EndToEnd[0].Name]), len(vb[EndToEnd[0].Name]))
		say(w, "  %-16s %12s %12s %8s %8s %7s  %s\n", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
		for _, d := range EndToEnd {
			v, worse, spread := Judge(d, va[d.Name], vb[d.Name])
			pass = pass && v != Regression
			say(w, "  %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				d.Name, Median(va[d.Name]), Median(vb[d.Name]), 100*worse, 100*spread, 100*d.Bound, v)
		}
	}
	return pass
}

func compareLayers(w io.Writer, a, b RunSet) bool {
	pass := true
	ga, gb := group(a), group(b)
	for _, wl := range Workloads {
		va, vb := ga[wl.Name], gb[wl.Name]
		if va == nil || vb == nil {
			continue
		}
		say(w, "\n%s per layer (traced; medians, no bound)\n", wl.Name)
		for _, d := range PerLayer {
			ma, mb := Median(va[d.Name]), Median(vb[d.Name])
			if ma == 0 && mb == 0 {
				continue // a layer this workload does not traverse
			}
			if ExactRepeat[d.Name] {
				say(w, "  %-34s %14.10g %14.10g %s\n", d.Name, ma, mb, d.Unit)
				continue
			}
			say(w, "  %-34s %14.6g %14.6g %-7s", d.Name, ma, mb, d.Unit)
			if ma != 0 {
				say(w, " %+6.1f%%", 100*(mb-ma)/ma)
			}
			say(w, "\n")
		}
	}

	type key struct {
		workload string
		seed     uint64
	}
	inA := map[key]*Result{}
	for _, r := range a.Runs {
		inA[key{r.Workload, r.Seed}] = r
	}
	compared := 0
	for _, rb := range b.Runs {
		ra := inA[key{rb.Workload, rb.Seed}]
		if ra == nil {
			continue
		}
		for _, d := range PerLayer {
			if !ExactRepeat[d.Name] {
				continue
			}
			compared++
			x, inX := ra.Metrics[d.Name]
			y, inY := rb.Metrics[d.Name]
			if !inX || !inY || x.Value != y.Value {
				pass = false
				say(w, "\nMISMATCH %s seed %d: %s is %v in A, %v in B", rb.Workload, rb.Seed, d.Name, x.Value, y.Value)
			}
		}
	}
	say(w, "\nexact-repeat counts: %d compared between runs of equal workload and seed\n", compared)
	return pass
}
