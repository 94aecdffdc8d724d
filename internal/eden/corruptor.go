// Package eden implements the paper's contribution: a framework that runs
// DNN inference on approximate DRAM while meeting a target accuracy. Its
// three steps are curricular retraining (§3.2, retrain.go), DNN error
// tolerance characterization (§3.3, characterize.go) and DNN-to-DRAM
// mapping (§3.4, mapping.go). corruptor.go exposes a DNN to approximate-DRAM
// bit errors: SoftwareDRAM injects them from a fitted error model (EDEN
// offloading, §4) and is what every stage and the server run, while
// DeviceMetric is the one evaluation that round-trips a network through a
// simulated device instead, the check of the fitted models against the
// device itself (§6.2, §6.4). deploy.go ties the stages into the
// single Deploy entry point, whose serializable Deployment artifact is the
// currency between the pipeline (cmd/eden) and the serving subsystem
// (internal/serve, cmd/serve).
package eden

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// WeightID and IFMID name the two DNN data kinds EDEN characterizes and
// maps independently (§3.3). A weight ID refers to one parameter tensor; an
// IFM ID refers to the input feature map of one top-level layer.
func WeightID(param string) string { return "w:" + param }

// IFMID returns the data ID of a layer's input feature map.
func IFMID(layer string) string { return "ifm:" + layer }

// DataDesc describes one mappable DNN data type.
type DataDesc struct {
	ID   string
	Bits int // storage footprint at the working precision
}

// EnumerateData lists every weight tensor and top-level IFM of net with its
// footprint at precision prec, in deterministic order (weights first, then
// IFMs in layer order).
func EnumerateData(net *dnn.Network, prec quant.Precision) []DataDesc {
	var out []DataDesc
	for _, p := range net.Params() {
		out = append(out, DataDesc{ID: WeightID(p.Name), Bits: p.W.Size() * prec.Bits()})
	}
	x := tensor.New(1, net.InC, net.InH, net.InW)
	net.Forward(x, false, func(i int, l dnn.Layer, t *tensor.Tensor) *tensor.Tensor {
		out = append(out, DataDesc{ID: IFMID(l.Name()), Bits: t.Size() * prec.Bits()})
		return t
	})
	return out
}

// Cloner is a corruptor that can mint independent copies of itself, which
// is what lets ClonePool and the serving scheduler hand every request or
// batch sample its own deterministic error stream without hard-coding a
// concrete corruptor type.
//
// Determinism contract: a corruptor's output must be a pure function of its
// construction inputs (error model or device, precision, configuration),
// the data ID passed to each corruption, and its pass counter. Two
// corruptors built identically and advanced through the same pass sequence
// must corrupt byte-identically; nothing may depend on wall-clock time,
// goroutine scheduling or corruption order across distinct data IDs. This is
// what makes characterization results reproducible and served predictions a
// pure function of (deployment, input, seed).
type Cloner interface {
	// IFMHook returns a hook that corrupts feature maps into fresh tensors,
	// for callers that do not own the tensors they hand it.
	IFMHook() dnn.IFMHook
	// IFMHookInPlace is IFMHook writing the corrupted values back into the
	// tensor it is handed, for callers that own every tensor the hook sees
	// (dnn's evaluation and training loops, the fused batch pass).
	// Byte-identical to IFMHook.
	IFMHookInPlace() dnn.IFMHook
	// CloneCorruptor returns an independent corruptor whose transient error
	// draws start at pass. Clones at equal pass values must corrupt
	// byte-identically; distinct pass values yield deterministically
	// different draws (per-sample seeding).
	CloneCorruptor(pass uint64) Cloner
	// Reset rewinds the corruptor to the start of a new evaluation pass; a
	// reset corruptor must corrupt byte-identically to a fresh
	// CloneCorruptor(pass) of its source.
	Reset(pass uint64)
}

var _ Cloner = (*SoftwareDRAM)(nil)

// SoftwareDRAM is the EDEN-offloading corruptor (§4): it injects errors
// from a fitted error model instead of a physical device, optionally with
// per-data BER overrides from fine-grained characterization, and corrects
// implausible values with the §5 bounding logic.
type SoftwareDRAM struct {
	Model *errormodel.Model
	Prec  quant.Precision
	// BER is the uniform (coarse-grained) bit error rate; zero means use
	// the model's own fitted aggregate.
	BER float64
	// BERByData overrides BER per data ID (fine-grained mapping).
	BERByData map[string]float64
	// Bounds holds plausibility ranges per data ID (see Calibrate).
	Bounds map[string]memctrl.Bounds
	// Logic holds the implausible-value correction policy (Zero from
	// NewSoftwareDRAM) and counts corrections across the run.
	Logic memctrl.BoundingLogic

	offsets   map[string]int
	nextBit   int
	passCount uint64
	// scaled memoizes Model.ScaledTo per BER (see scaledModel).
	scaled map[float64]*errormodel.Model

	// data holds what each data ID resolved to under the current
	// configuration (see state); ifm indexes the IFM entries by layer name
	// so a hook call finds its entry without building the ID.
	data map[string]*dataState
	ifm  map[string]*dataState
	// gen numbers the configuration the entries were resolved under, and
	// seen is the part of it refresh can watch (see refresh).
	gen  uint64
	seen struct {
		ber               float64
		bounds, overrides int
	}
	// image is the one quantized image every corruption of this corruptor
	// is built in (see corruptImage).
	image quant.QTensor
}

// dataState is everything corruptImage needs to know about one data ID —
// its rate and scaled error model, its plausibility bounds, its place in
// the modelled module and its weak cells — looked up from the corruptor's
// maps once and then carried from call to call.
type dataState struct {
	id  string
	gen uint64 // SoftwareDRAM.gen the four fields below were resolved at; 0 = never

	ber     float64
	scaled  *errormodel.Model // Model.ScaledTo(ber) when ber > 0
	bounds  memctrl.Bounds
	bounded bool // bounds is Bounds[id]; otherwise bounds come from each clean tensor

	off    int  // DRAM bit offset, once placed
	placed bool // false until the first corruption at a positive rate (or SetLayout) places the ID
	// weak lists the weak-cell bit offsets within the first weakSpan bits of
	// the tensor, ascending. They depend only on the model's seed and P and
	// on off, not on the rate, so they outlive a re-resolution.
	weak     []int32
	weakSpan int
}

// NewSoftwareDRAM builds a corruptor around a fitted model at the given
// precision with the zeroing policy.
func NewSoftwareDRAM(m *errormodel.Model, prec quant.Precision) *SoftwareDRAM {
	s := &SoftwareDRAM{
		Model:   m,
		Prec:    prec,
		Bounds:  map[string]memctrl.Bounds{},
		Logic:   memctrl.BoundingLogic{Policy: memctrl.Zero},
		offsets: map[string]int{},
		data:    map[string]*dataState{},
		ifm:     map[string]*dataState{},
		gen:     1,
	}
	return s
}

// state returns the entry of a data ID, creating it unresolved.
func (s *SoftwareDRAM) state(id string) *dataState {
	e := s.data[id]
	if e == nil {
		e = &dataState{id: id}
		s.data[id] = e
	}
	return e
}

// ifmState returns the entry of a layer's input feature map.
func (s *SoftwareDRAM) ifmState(l dnn.Layer) *dataState {
	name := l.Name()
	e := s.ifm[name]
	if e == nil {
		e = s.state(IFMID(name))
		s.ifm[name] = e
	}
	return e
}

// refresh brings e up to date with the configuration. The fields a sweep
// or a curricular schedule changes between corruptions are plain exported
// ones, so nothing announces the change: BER is compared on every call, and
// the two maps by length, which catches entries added after first use.
// CalibrateNet, which overwrites Bounds entries in place, starts a new
// generation itself. Overwriting an existing Bounds or BERByData entry by
// hand after its data ID was first corrupted is the one edit refresh cannot
// see; recalibrate, or set the maps up before use.
func (s *SoftwareDRAM) refresh(e *dataState) {
	if s.BER != s.seen.ber || len(s.Bounds) != s.seen.bounds || len(s.BERByData) != s.seen.overrides {
		s.seen.ber, s.seen.bounds, s.seen.overrides = s.BER, len(s.Bounds), len(s.BERByData)
		s.gen++
	}
	if e.gen == s.gen {
		return
	}
	e.gen = s.gen
	e.ber = s.berFor(e.id)
	e.scaled = nil
	if e.ber > 0 {
		e.scaled = s.scaledModel(e.ber)
	}
	e.bounds, e.bounded = s.Bounds[e.id]
	if !e.placed {
		e.off, e.placed = s.offsets[e.id]
	}
}

// berFor returns the BER to apply to one data ID.
func (s *SoftwareDRAM) berFor(id string) float64 {
	if b, ok := s.BERByData[id]; ok {
		return b
	}
	if s.BER > 0 {
		return s.BER
	}
	return s.Model.AggregateBER()
}

// offsetFor assigns a stable DRAM bit offset to a data ID that has none, so
// that different tensors occupy different rows of the modelled module.
func (s *SoftwareDRAM) offsetFor(id string, bits int) int {
	off := s.nextBit
	s.offsets[id] = off
	// Round up to a row boundary so tensors do not share rows.
	rows := (bits + s.Model.RowBits - 1) / s.Model.RowBits
	s.nextBit += rows * s.Model.RowBits
	return off
}

// SetLayout pins the DRAM bit offset of every data ID up front, replacing
// lazy first-use assignment. Offsets decide which error draws a tensor
// sees, and lazy assignment depends on corruption order — a pipeline stage
// that only ever touches its own layers would lay them out from bit 0 and
// diverge from the whole-model layout. Pinning the full-model layout (see
// eden.DataLayout) makes a stage's draws for its tensors bit-identical to
// single-process serving. nextBit continues allocation past the pinned
// layout for any ID not in it. Clones inherit the pinned layout.
func (s *SoftwareDRAM) SetLayout(offsets map[string]int, nextBit int) {
	s.offsets = make(map[string]int, len(offsets))
	for id, off := range offsets {
		s.offsets[id] = off
	}
	s.nextBit = nextBit
	// Placements and the weak lists computed at them are void.
	s.data, s.ifm = map[string]*dataState{}, map[string]*dataState{}
}

// scaledModel returns Model.ScaledTo(ber), computed once per distinct BER:
// every tensor of every hook call asks for it, and a corruptor only ever
// sees the handful of rates its sweep or partition map holds. The entries
// are never written after creation, so clones share them (each through a
// map of its own — a corruptor is single-goroutine state).
func (s *SoftwareDRAM) scaledModel(ber float64) *errormodel.Model {
	if m, ok := s.scaled[ber]; ok {
		return m
	}
	m := s.Model.ScaledTo(ber)
	if s.scaled == nil {
		s.scaled = map[float64]*errormodel.Model{}
	}
	s.scaled[ber] = m
	return m
}

// corruptTensorInto pushes one tensor through the modelled approximate
// DRAM: quantize, inject model errors at the data's BER, correct
// implausible values, dequantize. With inPlace set the image is dequantized
// into t's own storage and t itself is returned, saving an output
// allocation plus (for slab views of a fused batch tensor) the copy back
// into the batch; otherwise into a fresh tensor. In place, the caller must
// own t outright — corrupting a reused tensor, like a dataset sample, would
// compound across passes.
func (s *SoftwareDRAM) corruptTensorInto(t *tensor.Tensor, e *dataState, inPlace bool) *tensor.Tensor {
	q := s.corruptImage(t, e)
	if q == nil {
		return t
	}
	if inPlace {
		q.DequantizeInto(t.Data)
		return t
	}
	return q.Dequantize()
}

// corruptImage runs the quantize → inject → correct pipeline and returns
// the corrupted quantized image itself, or nil when the data ID is entirely
// error-free at FP32 (the tensor passes through untouched). Below FP32 an
// error-free ID still takes the quantize round trip, so a corruptor at zero
// BER is a pure quantization evaluator (Table 2's baseline accuracies).
// Exposing the image lets callers dequantize it into storage of their
// choice.
//
// The image is the corruptor's own scratch (s.image): it is valid until the
// next call on this corruptor, which overwrites it. Every caller decodes it
// before then — the hooks and corruptParams dequantize it — so weights and
// both hook shapes share the one buffer, and a warmed corruptor corrupts
// without allocating.
func (s *SoftwareDRAM) corruptImage(t *tensor.Tensor, e *dataState) *quant.QTensor {
	s.refresh(e)
	if e.ber <= 0 && s.Prec == quant.FP32 {
		return nil
	}
	q := &s.image
	quant.QuantizeInto(q, t, s.Prec)
	if e.ber <= 0 {
		return q
	}
	inj := errormodel.Injector{Model: e.scaled}
	// Keep transient draws aligned with the corruptor's pass counter.
	inj.SetPass(s.passCount)
	nbits := q.NumBits()
	if !e.placed {
		e.off, e.placed = s.offsetFor(e.id, nbits), true
	}
	if e.scaled.Kind == errormodel.Model0 && e.scaled.P >= 1 {
		// All-weak uniform model (every Uniform(ber) corruptor): the weak
		// list would enumerate every bit of the tensor, so skip both the
		// list and the per-cell scan — the injector samples flip positions
		// directly, at cost proportional to the flips, not the bits.
		inj.InjectUniform(q, e.off)
	} else {
		// Weak-cell locations depend only on the model's seed and P and on
		// the offset, not on the scaled flip rates, so the fitted model holds
		// them for every corruptor built on it, and this entry keeps the list
		// it was handed: a warmed corruptor takes no lock. IFM tensors shrink
		// on partial batches: the (ascending) list is cut to the current
		// span, and asked for again only if the span grew.
		if e.weakSpan < nbits {
			e.weak, e.weakSpan = e.scaled.SharedWeakPositions(nbits, e.off), nbits
		}
		cut := sort.Search(len(e.weak), func(i int) bool { return int(e.weak[i]) >= nbits })
		inj.InjectWeak(q, e.off, e.weak[:cut])
	}
	if e.bounded {
		s.Logic.CorrectQTensor(q, e.bounds)
	} else if s.Logic.Policy != memctrl.Off {
		// Fall back to bounds derived from the clean tensor, matching how
		// weight thresholds are computed at training time (§3.2).
		s.Logic.CorrectQTensor(q, memctrl.FromTensor(t, 1.5))
	}
	return q
}

// NextPass advances the transient error draw.
func (s *SoftwareDRAM) NextPass() { s.passCount++ }

// Clone returns an independent corruptor sharing the fitted model and
// configuration but owning its own layout caches, scratch image, pass
// counter and bounding logic. A SoftwareDRAM is single-goroutine state
// (corruptTensorInto mutates all of those), so parallel evaluation gives each
// goroutine a clone. The clone starts its transient error draws at
// pass; distinct pass values yield deterministically different draws, which
// is how per-sample error streams are seeded.
func (s *SoftwareDRAM) Clone(pass uint64) *SoftwareDRAM {
	c := &SoftwareDRAM{
		Model:     s.Model,
		Prec:      s.Prec,
		BER:       s.BER,
		BERByData: s.BERByData, // read-only after setup; safe to share
		Bounds:    make(map[string]memctrl.Bounds, len(s.Bounds)),
		Logic:     memctrl.BoundingLogic{Policy: s.Logic.Policy},
		offsets:   make(map[string]int, len(s.offsets)),
		nextBit:   s.nextBit,
		passCount: pass,
		scaled:    make(map[float64]*errormodel.Model, len(s.scaled)),
		data:      make(map[string]*dataState, len(s.data)),
		ifm:       make(map[string]*dataState, len(s.ifm)),
		gen:       s.gen,
		seen:      s.seen,
	}
	for k, v := range s.Bounds {
		c.Bounds[k] = v
	}
	for k, v := range s.offsets {
		c.offsets[k] = v
	}
	for k, v := range s.scaled {
		c.scaled[k] = v
	}
	// The clone owns its entries but shares their weak-cell lists: a list is
	// replaced whole when a larger span needs one, never written in place.
	entries, n := make([]dataState, len(s.data)), 0 // one allocation; slots are reached through c.data only
	for id, e := range s.data {
		entries[n] = *e
		c.data[id] = &entries[n]
		n++
	}
	return c
}

// CloneCorruptor adapts Clone to the Cloner interface.
func (s *SoftwareDRAM) CloneCorruptor(pass uint64) Cloner { return s.Clone(pass) }

// Reset rewinds a corruptor to the start of a new evaluation pass: the
// transient error draw restarts at pass and the correction counters clear.
// Layout state (offsets, weak-cell caches, bounds) survives — it depends
// only on the model seed and the data IDs, not on the pass — which is what
// makes a reset clone byte-identical to a freshly built Clone(pass).
func (s *SoftwareDRAM) Reset(pass uint64) {
	s.passCount = pass
	s.Logic.Corrections = 0
}

// ClonePool recycles Cloner corruptors across evaluation passes. Cloning
// per sample re-copies the bounds/offset maps and, worse,
// rebuilds nothing the next pass can reuse; under a serving workload that
// clones once per request, the allocation churn dominates low-latency
// dispatches. A pool keeps retired clones and hands them back after a
// Reset, so the weak-cell position caches — the expensive part, one probe
// per potential weak cell — are computed once per data ID for the lifetime
// of the pool instead of once per request.
//
// Get and Put are safe for concurrent use; the clones themselves remain
// single-goroutine state between Get and Put.
type ClonePool struct {
	src  Cloner
	mu   sync.Mutex
	free []Cloner
}

// NewClonePool builds a pool that clones from src. src must not be mutated
// (reconfigured, recalibrated) while the pool is in use.
func NewClonePool(src Cloner) *ClonePool {
	return &ClonePool{src: src}
}

// Get returns a corruptor whose transient draws start at pass: a recycled
// clone when one is free, a fresh CloneCorruptor(pass) otherwise. Both
// behave identically for the same pass value.
func (p *ClonePool) Get(pass uint64) Cloner {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		c.Reset(pass)
		return c
	}
	p.mu.Unlock()
	return p.src.CloneCorruptor(pass)
}

// Prewarm mints n clones into the free list ahead of traffic, so the first
// n concurrent Gets reuse warmed clones instead of paying CloneCorruptor's
// map copies on the dispatch path. Serving sizes this to the scheduler's
// maximum batch at registration time.
func (p *ClonePool) Prewarm(n int) {
	clones := make([]Cloner, 0, n)
	for i := 0; i < n; i++ {
		clones = append(clones, p.src.CloneCorruptor(0))
	}
	p.mu.Lock()
	p.free = append(p.free, clones...)
	p.mu.Unlock()
}

// Put retires a corruptor obtained from Get back into the pool.
func (p *ClonePool) Put(c Cloner) {
	if c == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// CorruptWeights overwrites every parameter with its approximate-DRAM image
// and returns a function that restores the clean weights.
func (s *SoftwareDRAM) CorruptWeights(net *dnn.Network) (restore func()) {
	return corruptParams(net, func(t *tensor.Tensor, id string) *quant.QTensor {
		return s.corruptImage(t, s.state(id))
	})
}

// corruptParams implements CorruptWeights for any corruptor that can expose
// its corrupted quantized image (which it may reuse for the next parameter;
// nothing here keeps it): every parameter is overwritten with the
// dequantized image, and the returned restore puts back the clean floats.
func corruptParams(net *dnn.Network, image func(t *tensor.Tensor, id string) *quant.QTensor) (restore func()) {
	params := net.Params()
	saved := make([][]float32, len(params))
	for i, p := range params {
		saved[i] = append([]float32(nil), p.W.Data...)
		if q := image(p.W, WeightID(p.Name)); q != nil {
			q.DequantizeInto(p.W.Data)
		}
	}
	return func() {
		for i, p := range params {
			copy(p.W.Data, saved[i])
		}
	}
}

// IFMHook returns a hook that corrupts each layer's input feature map.
func (s *SoftwareDRAM) IFMHook() dnn.IFMHook {
	return func(i int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		return s.corruptTensorInto(x, s.ifmState(l), false)
	}
}

// IFMHookInPlace is IFMHook with the corrupted image written back into the
// hook's input tensor, which is also returned. Byte-identical to IFMHook —
// only the destination storage differs — but safe only when the caller
// owns every tensor fed to the hook, as dnn's loops do (they hand it
// batches gathered into fresh tensors and fresh layer outputs, never a
// dataset sample) and the fused batch pass does (slab views of its private
// batch tensor; returning the view unchanged lets dnn.ForwardBatchFused
// skip the slab copy-back).
func (s *SoftwareDRAM) IFMHookInPlace() dnn.IFMHook {
	return func(i int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		return s.corruptTensorInto(x, s.ifmState(l), true)
	}
}

// CalibrateBounds derives the §5 plausibility bounds of every data ID of net
// from clean data: weight bounds from the parameters themselves and IFM
// bounds from a clean forward pass over up to maxSamples of tm's validation
// samples. The margin stretches observed ranges, defaulting to 1.5 when zero.
// net is tm's own network or a boosted copy whose weight ranges have drifted
// from it — thresholds must describe the network actually being run (§3.2).
func CalibrateBounds(tm *dnn.TrainedModel, net *dnn.Network, maxSamples int, margin float32) map[string]memctrl.Bounds {
	if margin == 0 {
		margin = 1.5
	}
	bounds := map[string]memctrl.Bounds{}
	for _, p := range net.Params() {
		bounds[WeightID(p.Name)] = memctrl.FromTensor(p.W, margin)
	}
	maxAbs := map[string]float32{}
	hook := func(i int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
		id := IFMID(l.Name())
		if m := quant.MaxAbs(x.Data); m > maxAbs[id] {
			maxAbs[id] = m
		}
		return x
	}
	tm.MetricOf(net, dnn.EvalOptions{Hook: hook, MaxSamples: maxSamples})
	for id, m := range maxAbs {
		if m == 0 {
			m = 1
		}
		bounds[id] = memctrl.Bounds{Lo: -m * margin, Hi: m * margin}
	}
	return bounds
}

// Calibrate records CalibrateBounds of tm's own network in s.Bounds.
func (s *SoftwareDRAM) Calibrate(tm *dnn.TrainedModel, maxSamples int, margin float32) {
	s.CalibrateNet(tm, tm.Net, maxSamples, margin)
}

// CalibrateNet records CalibrateBounds of net in s.Bounds.
func (s *SoftwareDRAM) CalibrateNet(tm *dnn.TrainedModel, net *dnn.Network, maxSamples int, margin float32) {
	maps.Copy(s.Bounds, CalibrateBounds(tm, net, maxSamples, margin))
	s.gen++ // existing entries were overwritten in place: re-resolve
}

// EvalOptions bundles the corruptor into dnn evaluation options.
func (s *SoftwareDRAM) EvalOptions(maxSamples int) dnn.EvalOptions {
	return dnn.EvalOptions{
		Hook:       s.IFMHookInPlace(),
		Corrupt:    s.CorruptWeights,
		MaxSamples: maxSamples,
	}
}

// DeviceMetric is the device-in-the-loop evaluation the paper validates its
// error models with (§6.2, §6.4): net's task metric over up to maxSamples of
// tm's validation samples, with every weight and top-level IFM written to
// device and read back at its current operating point, at FP32, and
// implausible values zeroed under bounds calibrated on net itself — a
// boosted network's weights outgrow its baseline's ranges (§3.2). Every
// data ID is placed up front, row-aligned, in EnumerateData order, with IFM
// regions sized for the 16-sample evaluation batches, so the layout does not
// depend on evaluation order; a network larger than the module is an error.
// Every read advances the device's access counter, so the order of accesses
// is part of the result and one device serves one call at a time.
func DeviceMetric(tm *dnn.TrainedModel, net *dnn.Network, device *dram.Device, maxSamples int) (float64, error) {
	rb := device.Geom.RowBytes
	addr := map[string]int{}
	next := 0
	for _, d := range EnumerateData(net, quant.FP32) {
		bytes := (d.Bits + 7) / 8
		if strings.HasPrefix(d.ID, "ifm:") {
			bytes *= dnn.EvalBatch
		}
		addr[d.ID] = next
		next += (bytes + rb - 1) / rb * rb
	}
	if next > device.Capacity() {
		return 0, fmt.Errorf("eden: model footprint %d B (row-aligned) exceeds module capacity %d B", next, device.Capacity())
	}
	bounds := CalibrateBounds(tm, net, 16, 0)
	logic := memctrl.BoundingLogic{Policy: memctrl.Zero}
	image := func(t *tensor.Tensor, id string) *quant.QTensor {
		q := quant.Quantize(t, quant.FP32)
		img := q.Pack()
		device.Write(addr[id], img)
		copy(img, device.Read(addr[id], len(img)))
		q.Unpack(img)
		logic.CorrectQTensor(q, bounds[id])
		return q
	}
	return tm.MetricOf(net, dnn.EvalOptions{
		Hook: func(i int, l dnn.Layer, x *tensor.Tensor) *tensor.Tensor {
			image(x, IFMID(l.Name())).DequantizeInto(x.Data)
			return x
		},
		Corrupt:    func(n *dnn.Network) func() { return corruptParams(n, image) },
		MaxSamples: maxSamples,
	}), nil
}
