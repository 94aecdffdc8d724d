package eden

import (
	"maps"
	"math"

	"repro/internal/dnn"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/parallel"
	"repro/internal/quant"
)

// berLo and berHi bound the log-scale search for a tolerable BER.
const berLo, berHi = 1e-5, 0.5

// CharacterizeConfig controls DNN error tolerance characterization (§3.3).
type CharacterizeConfig struct {
	// MaxDrop is the tolerated absolute drop in the task metric relative
	// to the reliable-DRAM baseline (the paper's headline target is 1%).
	MaxDrop float64
	// MaxSamples caps evaluation to a validation prefix, the paper's 10%
	// sampling trick (§6.6). Zero evaluates everything.
	MaxSamples int
	// Repeats averages the metric over several transient error draws to
	// de-noise the probe.
	Repeats int
	// SearchSteps is the binary search depth.
	SearchSteps int
	Prec        quant.Precision
}

// DefaultCharacterize returns the configuration used by the experiments.
func DefaultCharacterize() CharacterizeConfig {
	return CharacterizeConfig{
		MaxDrop:     0.01,
		MaxSamples:  60,
		Repeats:     2,
		SearchSteps: 10,
		Prec:        quant.FP32,
	}
}

// evalAt is the one probe every characterization loop, sweep and one-off
// measurement runs: net's mean task metric at a BER, averaged over Repeats
// transient draws. The draws are independent — each owns a fresh corruptor
// and its own clone of the network under test, since weight corruption
// mutates the network in place — so they run one per worker, and so may any
// number of evalAt calls on the same net. Per-draw results land in a slot
// indexed by the draw and are reduced in draw order, keeping the mean
// bit-identical to a serial run. bounds are net's plausibility bounds
// (probeBounds): every probe of one characterization evaluates the same
// weights, so its caller calibrates once and each probe's corruptor takes a
// copy.
func evalAt(tm *dnn.TrainedModel, net *dnn.Network, m *errormodel.Model, ber float64, cfg CharacterizeConfig, berByData map[string]float64, bounds map[string]memctrl.Bounds) float64 {
	sums := make([]float64, max(cfg.Repeats, 1))
	parallel.ForEach(len(sums), func(r int) {
		corr := NewSoftwareDRAM(m, cfg.Prec)
		corr.BER = ber
		corr.BERByData = berByData
		maps.Copy(corr.Bounds, bounds)
		corr.Reset(uint64(r))
		sums[r] = tm.MetricOf(tm.CloneNetFrom(net), corr.EvalOptions(cfg.MaxSamples))
	})
	var sum float64
	for _, v := range sums {
		sum += v
	}
	return sum / float64(len(sums))
}

// probeBounds calibrates the plausibility bounds the probes of one
// characterization of net run under.
func probeBounds(tm *dnn.TrainedModel, net *dnn.Network) map[string]memctrl.Bounds {
	return CalibrateBounds(tm, net, defaultCalibSamples, 0)
}

// baselineMetric returns net's metric on reliable DRAM, respecting the
// sampling cap so the comparison is apples-to-apples.
func baselineMetric(tm *dnn.TrainedModel, net *dnn.Network, cfg CharacterizeConfig) float64 {
	return tm.MetricOf(net, dnn.EvalOptions{MaxSamples: cfg.MaxSamples})
}

// CoarseCharacterize finds the highest uniform BER net tolerates while its
// metric stays within cfg.MaxDrop of its reliable baseline, by log-scale
// binary search (§3.3, "Coarse-Grained Characterization"). It returns the
// maximum tolerable BER, or 0 when even berLo fails.
func CoarseCharacterize(tm *dnn.TrainedModel, net *dnn.Network, m *errormodel.Model, cfg CharacterizeConfig) float64 {
	floor := baselineMetric(tm, net, cfg) - cfg.MaxDrop
	bounds := probeBounds(tm, net)
	ok := func(ber float64) bool {
		return evalAt(tm, net, m, ber, cfg, nil, bounds) >= floor
	}
	if !ok(berLo) {
		return 0
	}
	if ok(berHi) {
		return berHi
	}
	lo, hi := math.Log10(berLo), math.Log10(berHi)
	for i := 0; i < cfg.SearchSteps; i++ {
		mid := (lo + hi) / 2
		if ok(math.Pow(10, mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Pow(10, lo)
}

// FineCharacterize finds a per-data-type tolerable BER map (§3.3,
// "Fine-Grained Characterization"): every weight tensor and IFM starts at
// the coarse BER (the paper's bootstrap), then a sweep repeatedly tries to
// raise each data type's rate by a multiplicative increment, dropping data
// types from the sweep list once they fail. maxRounds bounds the sweep.
//
// Within a round every live data type's trial raise is probed against the
// round-start map, independently of the other trials — this is what lets
// the probes fan out one per worker, and it makes the sweep's outcome a
// function of the seed alone, not of worker count or probe order. Accepted
// raises are committed together when the round ends and the combined map
// is then re-validated against the floor: raises that pass individually
// can still fail jointly, and the returned map must never violate the
// accuracy target, so a failing joint check rolls the round back and ends
// the sweep with the last map known to meet the floor.
func FineCharacterize(tm *dnn.TrainedModel, net *dnn.Network, m *errormodel.Model, coarseBER float64, cfg CharacterizeConfig, maxRounds int) map[string]float64 {
	if coarseBER <= 0 {
		coarseBER = berLo
	}
	floor := baselineMetric(tm, net, cfg) - cfg.MaxDrop
	bounds := probeBounds(tm, net)
	data := EnumerateData(net, cfg.Prec)
	tol := make(map[string]float64, len(data))
	for _, d := range data {
		tol[d.ID] = coarseBER
	}
	// Sweep list: data types still accepting increases. The increment is
	// the linear-scale 0.5-of-bootstrap step the paper describes (§6.6).
	step := coarseBER * 0.5
	live := make([]string, 0, len(data))
	for _, d := range data {
		live = append(live, d.ID)
	}
	if maxRounds <= 0 {
		maxRounds = 6
	}
	for round := 0; round < maxRounds && len(live) > 0; round++ {
		accepted := make([]bool, len(live))
		parallel.ForEach(len(live), func(j int) {
			id := live[j]
			trial := tol[id] + step
			if trial > berHi {
				return
			}
			trialMap := maps.Clone(tol)
			trialMap[id] = trial
			accepted[j] = evalAt(tm, net, m, coarseBER, cfg, trialMap, bounds) >= floor
		})
		var next []string
		for j, ok := range accepted {
			if ok {
				tol[live[j]] += step
				next = append(next, live[j])
			}
		}
		if len(next) > 1 {
			// Joint re-validation of this round's combined raises.
			if evalAt(tm, net, m, coarseBER, cfg, tol, bounds) < floor {
				for _, id := range next {
					tol[id] -= step
				}
				break
			}
		}
		live = next
	}
	return tol
}
