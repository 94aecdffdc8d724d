package eden

import (
	"repro/internal/compute"
	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/quant"
	"repro/internal/softmc"
)

// PipelineConfig parameterizes the full EDEN flow of Fig. 4.
type PipelineConfig struct {
	Vendor string
	Prec   quant.Precision
	// Backend pins the compute backend the characterization sweeps and
	// boosting forwards run on; nil uses the process-wide default. All
	// backends are bit-identical, so this changes pipeline wall-clock
	// only, never its outcome.
	Backend compute.Backend
	// Char controls the characterization probes; Char.MaxDrop is the
	// user-specified accuracy target.
	Char CharacterizeConfig
	// RetrainEpochs is per boosting round; Rounds is how many
	// boost↔characterize cycles to run (the paper iterates until the
	// tolerable BER stops improving).
	RetrainEpochs int
	Rounds        int
	// ProfileVDD is the stress voltage used to characterize the module and
	// fit the error model.
	ProfileVDD float64
	// ProfileMaxRows caps the rows profiled (speed/coverage trade-off).
	ProfileMaxRows int
	Seed           uint64
}

// DefaultPipeline returns the experiment configuration for a vendor.
func DefaultPipeline(vendor string) PipelineConfig {
	return PipelineConfig{
		Vendor:         vendor,
		Prec:           quant.FP32,
		Char:           DefaultCharacterize(),
		RetrainEpochs:  10,
		Rounds:         2,
		ProfileVDD:     1.05,
		ProfileMaxRows: 64,
		Seed:           0xEDE4,
	}
}

// ProfileAndFit characterizes a module at a stress operating point and
// returns the best-fitting error model (steps "DRAM error profile" of
// Fig. 4). The model is fitted once per module and reused across DNNs.
func ProfileAndFit(device *dram.Device, profileVDD float64, maxRows int, seed uint64) *errormodel.Model {
	op := dram.Nominal()
	op.VDD = profileVDD
	prof := softmc.Characterize(device, op, softmc.CharacterizeConfig{Reads: 4, MaxRows: maxRows})
	return errormodel.Select(prof, seed)
}
