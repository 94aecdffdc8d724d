// Package dram is a behavioural simulator of a DDR4-style DRAM device
// operated below its specified supply voltage and timing parameters. It
// substitutes for the paper's eight real DDR3/DDR4 modules driven through a
// SoftMC FPGA: data is stored faithfully, and reads performed at a reduced
// operating point return bit flips whose rate, spatial structure (per-cell,
// per-bitline, per-wordline) and data-pattern dependence are calibrated to
// the behaviour the paper characterizes (Fig. 5, §2.3, §4).
//
// A read returns the bits of the plain per-bit evaluation, the tests'
// oracle, faster: draws meet integer thresholds eight at a time (AVX2 on
// amd64), and bounds per row and per cell settle most (Device.Read).
package dram

import (
	"fmt"
	"math"
)

// Geometry describes the simulated module's organization. The simulated
// module is capacity-scaled relative to a real 4GB part, but keeps the
// structural levels EDEN partitions against (bank, subarray, row).
type Geometry struct {
	Banks            int
	SubarraysPerBank int
	RowsPerSubarray  int
	RowBytes         int
}

// DefaultGeometry is the module used throughout the experiments: 8 banks ×
// 8 subarrays × 32 rows × 2KB rows = 4 MiB.
func DefaultGeometry() Geometry {
	return Geometry{Banks: 8, SubarraysPerBank: 8, RowsPerSubarray: 32, RowBytes: 2048}
}

// Capacity returns the module size in bytes.
func (g Geometry) Capacity() int {
	return g.Banks * g.SubarraysPerBank * g.RowsPerSubarray * g.RowBytes
}

// Rows returns the total row count.
func (g Geometry) Rows() int { return g.Banks * g.SubarraysPerBank * g.RowsPerSubarray }

// Subarrays returns the total subarray count.
func (g Geometry) Subarrays() int { return g.Banks * g.SubarraysPerBank }

// Timing holds the DRAM timing parameters (ns) EDEN manipulates. CL is a
// device characteristic and is not adjustable (§2.2).
type Timing struct {
	TRCD float64
	TRAS float64
	TRP  float64
	CL   float64
}

// NominalTiming returns the DDR4 datasheet values used by the paper.
func NominalTiming() Timing {
	return Timing{TRCD: 12.5, TRAS: 32, TRP: 12.5, CL: 12.5}
}

// OperatingPoint is a supply voltage plus timing parameters.
type OperatingPoint struct {
	VDD    float64
	Timing Timing
}

// Nominal returns the fully reliable datasheet operating point
// (VDD = 1.35 V as in the paper's Table 3).
func Nominal() OperatingPoint {
	return OperatingPoint{VDD: NominalVDD, Timing: NominalTiming()}
}

// NominalVDD is the datasheet supply voltage (V).
const NominalVDD = 1.35

// VendorProfile calibrates how a vendor's parts degrade when voltage and
// tRCD are reduced. The three profiles follow the qualitative differences
// the paper observes between its three vendors (Fig. 5): different onset
// points and slopes, and different dominant spatial error structure.
type VendorProfile struct {
	Name string
	// log10(BER) = VoltOffset + VoltSlope*(NominalVDD - VDD), clamped.
	VoltSlope  float64
	VoltOffset float64
	// log10(BER) = TRCDOffset + TRCDSlope*(TRCDOnset - tRCD) for tRCD below
	// the onset, clamped.
	TRCDOnset  float64
	TRCDSlope  float64
	TRCDOffset float64
	// Spatial structure mix: fraction of a cell's weakness that comes from
	// its bitline and wordline respectively; the remainder is per-cell.
	BitlineWeight  float64
	WordlineWeight float64
	// Data dependence: relative flip rates for 1-valued cells under voltage
	// stress and 0-valued cells under latency stress. The paper observes
	// 1→0 flips dominate voltage scaling and 0→1 flips dominate tRCD
	// scaling (Error Model 3 discussion).
	VoltOneBias  float64 // multiplier for stored 1s under voltage stress
	TRCDZeroBias float64 // multiplier for stored 0s under tRCD stress
}

// Vendors returns the three calibrated vendor profiles, A, B and C.
// Vendor A errors are dominantly uniform-random (Error Model 0 fits best),
// Vendor B has strong bitline structure (Error Model 1), and Vendor C has
// strong wordline structure (Error Model 2).
func Vendors() []VendorProfile {
	return []VendorProfile{
		{
			Name:      "A",
			VoltSlope: 22, VoltOffset: -9,
			TRCDOnset: 10, TRCDSlope: 2.2, TRCDOffset: -9,
			BitlineWeight: 0.05, WordlineWeight: 0.05,
			VoltOneBias: 1.2, TRCDZeroBias: 1.2,
		},
		{
			Name:      "B",
			VoltSlope: 19, VoltOffset: -9.5,
			TRCDOnset: 9.5, TRCDSlope: 2.0, TRCDOffset: -9.5,
			BitlineWeight: 0.60, WordlineWeight: 0.05,
			VoltOneBias: 1.2, TRCDZeroBias: 1.15,
		},
		{
			Name:      "C",
			VoltSlope: 17, VoltOffset: -8.5,
			TRCDOnset: 10.5, TRCDSlope: 2.4, TRCDOffset: -8.5,
			BitlineWeight: 0.05, WordlineWeight: 0.60,
			VoltOneBias: 1.15, TRCDZeroBias: 1.2,
		},
	}
}

// VendorByName returns the named vendor profile.
func VendorByName(name string) (VendorProfile, error) {
	for _, v := range Vendors() {
		if v.Name == name {
			return v, nil
		}
	}
	return VendorProfile{}, fmt.Errorf("dram: unknown vendor %q", name)
}

// baseBER returns the aggregate bit error rates induced separately by the
// voltage and tRCD components of op, before per-cell variation.
func (p VendorProfile) baseBER(op OperatingPoint) (vBER, tBER float64) {
	logV := p.VoltOffset + p.VoltSlope*(NominalVDD-op.VDD)
	if op.VDD >= NominalVDD {
		logV = p.VoltOffset
	}
	logT := math.Inf(-1)
	if op.Timing.TRCD < p.TRCDOnset {
		logT = p.TRCDOffset + p.TRCDSlope*(p.TRCDOnset-op.Timing.TRCD)
	}
	clamp := func(l float64) float64 {
		ber := math.Pow(10, l)
		if ber > 0.5 {
			return 0.5
		}
		return ber
	}
	return clamp(logV), clamp(logT)
}

// ExpectedBER returns the profile's aggregate bit error rate at op for
// uniformly distributed data. It is the sum of the voltage and latency
// contributions, clamped to 0.5.
func (p VendorProfile) ExpectedBER(op OperatingPoint) float64 {
	v, t := p.baseBER(op)
	ber := v + t
	if ber > 0.5 {
		return 0.5
	}
	return ber
}
