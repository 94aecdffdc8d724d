// This bench file regenerates every table and figure of the
// paper's evaluation as Go benchmarks (one per artifact, named after it;
// cmd/experiments holds the same index as a name table). Each benchmark
// runs its experiment once per invocation — heavyweight intermediates are
// cached process-wide — and prints the paper-style rows so that
// `go test -bench=.` reproduces the full evaluation. Run with -benchtime=1x
// for a single pass.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/quant"
)

// once guards printing so repeated b.N iterations do not spam output.
var printed sync.Map

func printOnce(b *testing.B, rep experiments.Report) {
	b.Helper()
	if _, dup := printed.LoadOrStore(rep.ID, true); !dup {
		fmt.Println(rep)
	}
}

func runReport(b *testing.B, f func() (experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := f()
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, rep)
	}
}

func BenchmarkTable1ModelZoo(b *testing.B) {
	runReport(b, func() (experiments.Report, error) { return experiments.Table1ModelZoo(), nil })
}

func BenchmarkTable2BaselineAccuracy(b *testing.B) {
	runReport(b, func() (experiments.Report, error) { return experiments.Table2Baselines(), nil })
}

func BenchmarkTable3CoarseCharacterization(b *testing.B) {
	runReport(b, func() (experiments.Report, error) {
		return experiments.Table3Coarse([]quant.Precision{quant.FP32, quant.Int8})
	})
}

func BenchmarkFigure5BERCurves(b *testing.B) {
	runReport(b, func() (experiments.Report, error) { return experiments.Figure5BERCurves(), nil })
}

func BenchmarkFigure7ModelValidation(b *testing.B) {
	runReport(b, experiments.Figure7ModelValidation)
}

func BenchmarkFigure8ToleranceCurves(b *testing.B) {
	runReport(b, experiments.Figure8ToleranceCurves)
}

func BenchmarkFigure9BoostedOnDevice(b *testing.B) {
	runReport(b, experiments.Figure9BoostedOnDevice)
}

func BenchmarkFigure10RetrainingAblation(b *testing.B) {
	runReport(b, experiments.Figure10RetrainingAblation)
}

func BenchmarkFigure11FineGrained(b *testing.B) {
	runReport(b, experiments.Figure11FineGrained)
}

func BenchmarkFigure12Mapping(b *testing.B) {
	runReport(b, experiments.Figure12Mapping)
}

func BenchmarkFigure13CPUEnergy(b *testing.B) {
	runReport(b, experiments.Figure13CPUEnergy)
}

func BenchmarkFigure14CPUSpeedup(b *testing.B) {
	runReport(b, experiments.Figure14CPUSpeedup)
}

func BenchmarkSection72GPU(b *testing.B) {
	runReport(b, experiments.Section72GPU)
}

func BenchmarkSection72Accelerators(b *testing.B) {
	runReport(b, experiments.Section72Accelerators)
}

func BenchmarkProfilingCost(b *testing.B) {
	runReport(b, func() (experiments.Report, error) { return experiments.ProfilingCost(), nil })
}

func BenchmarkCorrectionPolicyAblation(b *testing.B) {
	runReport(b, experiments.CorrectionPolicyAblation)
}

func BenchmarkPruningAblation(b *testing.B) {
	runReport(b, experiments.PruningAblation)
}

func BenchmarkRefreshExtension(b *testing.B) {
	runReport(b, experiments.RefreshExtension)
}

func BenchmarkBoundingMarginAblation(b *testing.B) {
	runReport(b, experiments.BoundingMarginAblation)
}

func BenchmarkCurriculumStepAblation(b *testing.B) {
	runReport(b, experiments.CurriculumStepAblation)
}
