// Package lint assembles the repository's analyzer suite. Each analyzer
// mechanically enforces one clause of the determinism & parallel-safety
// contract documented in doc.go and README.md ("Static analysis"); the
// cmd/repro-lint multichecker runs them all and the CI lint job gates
// merges on a clean run.
package lint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/errreturn"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/noclocktime"
	"repro/internal/lint/nomathrand"
	"repro/internal/lint/rngstream"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errreturn.Analyzer,
		hotalloc.Analyzer,
		noclocktime.Analyzer,
		nomathrand.Analyzer,
		rngstream.Analyzer,
	}
}
