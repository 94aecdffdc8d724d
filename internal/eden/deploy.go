package eden

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/quant"
	"repro/internal/softmc"
)

// DeployConfig parameterizes eden.Deploy, the one entry point for the full
// Fig. 4 flow: the coarse stages (profile, fit, boost, characterize, map),
// then the opt-in fine-grained characterization plus Algorithm-1 partition
// mapping, and the calibration snapshot baked into the artifact.
type DeployConfig struct {
	Vendor string
	Prec   quant.Precision
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
	// FineGrained enables fine-grained characterization and the Algorithm-1
	// mapping of data types onto device partitions. When the assignment
	// fails (some data fits no partition), the deployment falls back to the
	// coarse operating point, as the paper prescribes (§3.4).
	FineGrained bool
	// FineRounds bounds the fine-characterization sweep (default 3).
	FineRounds int
	// PartitionLevels are the per-partition BER targets as multiples of the
	// coarse tolerable BER (default 0.5, 1, 1.5, 2.5); their count is the
	// partition count and must divide the module's subarrays.
	PartitionLevels []float64
	// PartitionReads is the SoftMC read count per partition-BER measurement
	// (default 2).
	PartitionReads int
	// CalibSamples bounds the clean forward passes used to calibrate the §5
	// plausibility bounds stored in the artifact (default 16).
	CalibSamples int
}

// defaultCalibSamples is how many clean forward passes calibrate an
// artifact's plausibility bounds unless a DeployConfig says otherwise.
const defaultCalibSamples = 16

// DefaultDeploy returns the deployment configuration for a vendor, with the
// coarse stages at their experiment defaults and fine-grained mapping off.
func DefaultDeploy(vendor string) DeployConfig {
	return DeployConfig{
		Vendor:          vendor,
		Prec:            quant.FP32,
		Char:            DefaultCharacterize(),
		RetrainEpochs:   10,
		Rounds:          2,
		ProfileVDD:      1.05,
		ProfileMaxRows:  64,
		Seed:            0xEDE4,
		FineRounds:      3,
		PartitionLevels: []float64{0.5, 1, 1.5, 2.5},
		PartitionReads:  2,
		CalibSamples:    defaultCalibSamples,
	}
}

// withDefaults fills the unset fine-grained and calibration fields from
// DefaultDeploy.
func (c DeployConfig) withDefaults() DeployConfig {
	d := DefaultDeploy(c.Vendor)
	if c.FineRounds <= 0 {
		c.FineRounds = d.FineRounds
	}
	if len(c.PartitionLevels) == 0 {
		c.PartitionLevels = d.PartitionLevels
	}
	if c.PartitionReads <= 0 {
		c.PartitionReads = d.PartitionReads
	}
	if c.CalibSamples <= 0 {
		c.CalibSamples = d.CalibSamples
	}
	return c
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

// Deployment is the serializable artifact the EDEN pipeline produces: one
// value carrying everything needed to run a model on approximate DRAM —
// the boosted network, the fitted error model, the characterized operating
// points, the per-data BER assignment when fine-grained mapping succeeded,
// and the plausibility bounds calibrated at deploy time. It is what
// cmd/eden emits, what cmd/serve consumes, and the registration currency of
// the serving subsystem; no dataset or training access is needed to serve
// it.
type Deployment struct {
	// ModelName names the zoo architecture; Load rebuilds it by name.
	ModelName string `json:"model"`
	// Vendor is the DRAM vendor profile the module was characterized as;
	// empty for a UniformDeployment, which has no module behind it.
	Vendor string `json:"vendor"`
	// Prec is the storage precision of weights and IFMs.
	Prec quant.Precision `json:"precision"`
	// ErrorModel is the fitted+selected model of the profiled module.
	ErrorModel *errormodel.Model `json:"error_model"`
	// BaselineTolBER and TolerableBER are the coarse tolerable BERs before
	// and after boosting.
	BaselineTolBER float64 `json:"baseline_tol_ber"`
	TolerableBER   float64 `json:"tolerable_ber"`
	// Op is the coarse-mapped operating point; DeltaVDD and DeltaTRCD are
	// the reductions from nominal (the Table 3 columns). ServingBER is the
	// module's expected BER at Op — the uniform rate coarse serving runs at.
	Op         dram.OperatingPoint `json:"op"`
	DeltaVDD   float64             `json:"delta_vdd"`
	DeltaTRCD  float64             `json:"delta_trcd_ns"`
	ServingBER float64             `json:"serving_ber"`
	// FineGrained reports that the Algorithm-1 assignment below is active.
	// When fine-grained mapping was requested but fell back to the coarse
	// operating point, FineGrainedErr records why (which data type fit no
	// partition).
	FineGrained    bool   `json:"fine_grained"`
	FineGrainedErr string `json:"fine_grained_err,omitempty"`
	// TolByData is the fine-characterized tolerable BER per data ID;
	// Partitions, Assignment and BERByData are the Algorithm-1 outcome
	// (data ID → partition, and the partition BER each data type sees).
	TolByData  map[string]float64 `json:"tol_by_data,omitempty"`
	Partitions []PartitionInfo    `json:"partitions,omitempty"`
	Assignment map[string]int     `json:"assignment,omitempty"`
	BERByData  map[string]float64 `json:"ber_by_data,omitempty"`
	// Bounds are the §5 plausibility ranges calibrated against the boosted
	// network at deploy time, so serving needs no dataset access.
	Bounds map[string]memctrl.Bounds `json:"bounds"`
	// WeightBytes is the weight footprint at Prec.
	WeightBytes int `json:"weight_bytes"`
	// Stage is set only on pipeline-stage slices produced by Slice: the
	// stage's layer range, boundary shapes, and the full-model DRAM layout
	// that keeps its error injection bit-identical to single-process
	// serving. Full artifacts omit it, so their encoding is unchanged.
	Stage *StageInfo `json:"stage,omitempty"`
	// Net is the boosted network (weights serialized separately from the
	// JSON metadata by Save, via the dnn state-tensor machinery).
	Net *dnn.Network `json:"-"`
}

// Deploy runs the full EDEN flow of Fig. 4 for a zoo model and captures the
// outcome as one reusable artifact: profile the module and fit an error
// model, boost the DNN with curricular retraining while the tolerable BER
// improves, characterize coarsely and map to the most aggressive operating
// point meeting the accuracy target, optionally fine-characterize every
// data type and run Algorithm 1 over real device partitions, and calibrate
// the bounding-logic plausibility ranges against the boosted network.
func Deploy(modelName string, cfg DeployConfig) (*Deployment, error) {
	cfg = cfg.withDefaults()
	vendor, err := dram.VendorByName(cfg.Vendor)
	if err != nil {
		return nil, err
	}
	tm, err := dnn.Pretrained(modelName)
	if err != nil {
		return nil, err
	}
	device := dram.NewDevice(dram.DefaultGeometry(), vendor, cfg.Seed)
	em := ProfileAndFit(device, cfg.ProfileVDD, cfg.ProfileMaxRows, cfg.Seed)
	cfg.Char.Prec = cfg.Prec

	dep := &Deployment{
		ModelName:  modelName,
		Vendor:     vendor.Name,
		Prec:       cfg.Prec,
		ErrorModel: em,
	}
	dep.BaselineTolBER = CoarseCharacterize(tm, tm.Net, em, cfg.Char)

	best, bestTol := boost(tm, em, dep.BaselineTolBER, cfg)
	dep.TolerableBER = bestTol
	dep.Op = CoarseMap(vendor, bestTol)
	dep.DeltaVDD = dep.Op.VDD - dram.NominalVDD
	dep.DeltaTRCD = dep.Op.Timing.TRCD - dram.NominalTiming().TRCD
	dep.ServingBER = vendor.ExpectedBER(dep.Op)

	if cfg.FineGrained && bestTol <= 0 {
		dep.FineGrainedErr = "coarse characterization found no tolerable BER to bootstrap from"
	}
	if cfg.FineGrained && bestTol > 0 {
		tol := FineCharacterize(tm, best, em, bestTol, cfg.Char, cfg.FineRounds)
		parts, err := PartitionDevice(device, vendor, bestTol, cfg.PartitionLevels, cfg.PartitionReads)
		if err != nil {
			return nil, err
		}
		chars := DataTolerances(best, cfg.Prec, tol)
		// A failed assignment (some data fits no partition) falls back to
		// the coarse operating point already recorded above (§3.4), keeping
		// the reason so callers can report why.
		if assign, err := MapFineGrained(chars, parts); err == nil {
			dep.FineGrained = true
			dep.TolByData = tol
			dep.Partitions = parts
			dep.Assignment = assign
			dep.BERByData = BERByAssignment(assign, parts)
		} else {
			dep.FineGrainedErr = err.Error()
		}
	}

	// Snapshot the boosted network (boost may return tm's cached network
	// itself) and bake calibrated plausibility bounds into the artifact.
	dep.Net = tm.CloneNetFrom(best)
	dep.calibrate(tm, cfg.CalibSamples)
	return dep, nil
}

// UniformDeployment is the flow's coarse-grained case with the uniform BER
// given instead of characterized: the pretrained zoo model, unboosted, under
// a uniform random error model at ber, with bounds calibrated on the clean
// network over the default sample count. No module stands behind it, so it
// names no vendor and no operating point; it serves, saves and slices like
// any other artifact.
func UniformDeployment(modelName string, prec quant.Precision, ber float64) (*Deployment, error) {
	tm, err := dnn.Pretrained(modelName)
	if err != nil {
		return nil, err
	}
	dep := &Deployment{
		ModelName:  modelName,
		Prec:       prec,
		ErrorModel: errormodel.Uniform(ber),
		ServingBER: ber,
		Net:        tm.CloneNet(),
	}
	dep.calibrate(tm, defaultCalibSamples)
	return dep, nil
}

// calibrate bakes the §5 plausibility bounds of d.Net, observed over up to
// samples clean forwards of tm's validation data, and the weight footprint
// into the artifact.
func (d *Deployment) calibrate(tm *dnn.TrainedModel, samples int) {
	d.Bounds = CalibrateBounds(tm, d.Net, samples, 0)
	d.WeightBytes = d.Net.WeightBytes(d.Prec)
}

// boost runs the boost↔characterize rounds of the pipeline: curricularly
// retrain toward a rising BER target while the characterized tolerable BER
// keeps improving. It returns the best network (tm's own when no round
// improved on the baseline) and its tolerable BER.
func boost(tm *dnn.TrainedModel, em *errormodel.Model, baseline float64, cfg DeployConfig) (*dnn.Network, float64) {
	best := tm.Net
	bestTol := baseline
	target := bestTol * 4
	if target < 1e-3 {
		target = 1e-3
	}
	for round := 0; round < cfg.Rounds; round++ {
		rc := DefaultRetrain(em, target)
		rc.Epochs = cfg.RetrainEpochs
		rc.Prec = cfg.Prec
		rc.Seed = cfg.Seed + uint64(round)
		boosted := Retrain(tm, rc)
		tol := CoarseCharacterize(tm, boosted, em, cfg.Char)
		if tol > bestTol {
			best = boosted
			bestTol = tol
			target = tol * 2
		} else {
			break
		}
	}
	return best, bestTol
}

// NewCorruptor builds a fresh corruptor realizing the deployment's error
// exposure: the fitted model at the artifact's precision, the per-data BER
// overrides when fine-grained mapping succeeded (the mapped operating
// point's uniform BER otherwise), the quantize round trip whenever the
// artifact stores below FP32, and the plausibility bounds calibrated at
// deploy time. The returned corruptor satisfies Cloner, so serving pools
// per-request clones of it.
func (d *Deployment) NewCorruptor() *SoftwareDRAM {
	corr := NewSoftwareDRAM(d.ErrorModel, d.Prec)
	corr.BER = d.ServingBER
	if d.FineGrained {
		corr.BERByData = d.BERByData
	}
	corr.ForceQuant = d.Prec != quant.FP32
	for id, b := range d.Bounds {
		corr.Bounds[id] = b
	}
	if d.Stage != nil {
		// A stage corruptor touches only its own tensors, so first-use
		// offset assignment would diverge from the single-process layout.
		// Pin every offset to the full-model layout instead: injection is a
		// pure function of (seed, offset, pass), so this is exactly what
		// makes stage-wise corruption bitwise-equal to whole-model serving.
		corr.SetLayout(d.Stage.Layout, d.Stage.LayoutEnd)
	}
	return corr
}

// buildArch rebuilds the deployment's network architecture from the zoo by
// name, re-slicing it to the stage's layer range when the artifact is a
// pipeline-stage slice — so state-tensor copies and loads line up with the
// (possibly sliced) serialized state.
func (d *Deployment) buildArch() (*dnn.Network, error) {
	net, err := dnn.BuildModel(d.ModelName)
	if err != nil {
		return nil, err
	}
	if d.Stage != nil {
		return net.Slice(d.Stage.Lo, d.Stage.Hi)
	}
	return net, nil
}

// CloneNet rebuilds the model architecture from the zoo and copies the
// deployment's boosted state into it, so a caller (one serving registration,
// one experiment) can corrupt weights in place without touching the
// artifact. For a stage slice, the clone is the sliced architecture with
// the stage's state.
func (d *Deployment) CloneNet() (*dnn.Network, error) {
	if d.Net == nil {
		return nil, fmt.Errorf("eden: deployment %q has no network", d.ModelName)
	}
	fresh, err := d.buildArch()
	if err != nil {
		return nil, err
	}
	src := d.Net.StateTensors()
	dst := fresh.StateTensors()
	if len(src) != len(dst) {
		return nil, fmt.Errorf("eden: deployment %q state has %d tensors, architecture has %d",
			d.ModelName, len(src), len(dst))
	}
	for i := range src {
		if len(src[i].T.Data) != len(dst[i].T.Data) {
			return nil, fmt.Errorf("eden: deployment %q tensor %s size mismatch", d.ModelName, src[i].Name)
		}
		copy(dst[i].T.Data, src[i].T.Data)
	}
	return fresh, nil
}

// String renders the deployment as a Table 3 row, annotated with the
// fine-grained assignment when one is active.
func (d *Deployment) String() string {
	s := fmt.Sprintf("%-14s tolerable BER %5.2f%%  ΔVDD %+.2fV  ΔtRCD %+.1fns",
		d.ModelName, d.TolerableBER*100, d.DeltaVDD, d.DeltaTRCD)
	if d.FineGrained {
		s += fmt.Sprintf("  (fine-grained: %d data types over %d partitions)",
			len(d.Assignment), len(d.Partitions))
	}
	return s
}

const deployMagic = "EDENDEP1"

// Save serializes the deployment to w: a magic header, the JSON metadata
// (maps key-sorted by encoding/json, so the encoding is deterministic), and
// the network state tensors in the dnn serialization format. Saving the
// same deployment twice produces identical bytes.
func (d *Deployment) Save(w io.Writer) error {
	if d.Net == nil {
		return fmt.Errorf("eden: deployment %q has no network to save", d.ModelName)
	}
	meta, err := json.Marshal(d)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(deployMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(meta))); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return d.Net.Save(w)
}

// LoadDeployment reads a deployment previously written by Save, rebuilding
// the network architecture from the zoo by name and validating the vendor.
func LoadDeployment(r io.Reader) (*Deployment, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(deployMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != deployMagic {
		return nil, fmt.Errorf("eden: bad deployment magic %q", magic)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<26 {
		return nil, fmt.Errorf("eden: unreasonable deployment metadata length %d", n)
	}
	meta := make([]byte, n)
	if _, err := io.ReadFull(br, meta); err != nil {
		return nil, err
	}
	d := &Deployment{}
	if err := json.Unmarshal(meta, d); err != nil {
		return nil, err
	}
	// A uniform deployment names no vendor; any other name must be known.
	if d.Vendor != "" {
		if _, err := dram.VendorByName(d.Vendor); err != nil {
			return nil, err
		}
	}
	switch d.Prec {
	case quant.FP32, quant.Int16, quant.Int8, quant.Int4:
	default:
		return nil, fmt.Errorf("eden: deployment has unknown precision %d", d.Prec)
	}
	net, err := d.buildArch()
	if err != nil {
		return nil, err
	}
	if err := net.Load(br); err != nil {
		return nil, err
	}
	d.Net = net
	return d, nil
}

// SaveFile writes the deployment artifact to a file, atomically: the bytes
// land in a uniquely named temporary sibling first and replace path only on
// success, so a failed or concurrent save never destroys an existing
// artifact.
func (d *Deployment) SaveFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := d.Save(f); err != nil {
		_ = f.Close()      // already failing; Save's error wins
		_ = os.Remove(tmp) // best-effort cleanup of the temp sibling
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp) // best-effort cleanup of the temp sibling
		return err
	}
	return os.Rename(tmp, path)
}

// LoadDeploymentFile reads a deployment artifact from a file.
func LoadDeploymentFile(path string) (*Deployment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDeployment(f)
}
