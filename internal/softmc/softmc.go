// Package softmc drives reduced-parameter characterization of a simulated
// approximate DRAM module, playing the role of the paper's FPGA-based
// SoftMC infrastructure (§6.1): it writes worst-case data patterns
// (inverted in consecutive rows, §3.4), reads them back at reduced voltage
// and timing parameters, measures bit error rates, and collects the
// per-cell observations that errormodel fits its four models to.
//
// The three row sweeps — Characterize, PartitionBER, MeasureBER — read
// through dram.Device.ReadRows, which fans rows out over the worker pool.
// Their results, and the state they leave the device in (access counter,
// Stats, stored pattern, operating points), are those of the serial loop of
// Device.Read calls in pattern → read → row order at any worker count and
// on either vector path (dram's read kernel changes the speed of a read,
// never its bits); the tests pin both.
package softmc

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/errormodel"
)

// DefaultPatterns are the data backgrounds used by the characterization
// runs in the paper's Fig. 5.
var DefaultPatterns = []byte{0xFF, 0xCC, 0xAA, 0x00}

// MeasureBER fills the module with pattern (inverting every other row, the
// paper's worst-case layout), performs `reads` full-module reads at op, and
// returns the observed bit error rate. The module's data and operating
// point are left in the test state; callers that care should reset it.
func MeasureBER(d *dram.Device, op dram.OperatingPoint, pattern byte, reads int) float64 {
	writePattern(d, pattern)
	d.SetOperatingPoint(op)
	ber := measureRows(d, 0, d.Geom.Rows(), pattern, reads)
	d.SetOperatingPoint(dram.Nominal())
	return ber
}

// measureRows reads rows [lo, hi), which hold pattern, `reads` times and
// returns the share of read-back bits that differ from it.
func measureRows(d *dram.Device, lo, hi int, pattern byte, reads int) float64 {
	flips := make([]int, hi-lo) // per row: ReadRows visits rows concurrently
	d.ReadRows(lo, hi, reads, func(_, row int, data []byte) {
		expect, n := rowPattern(pattern, row), 0
		for _, b := range data {
			n += bits.OnesCount8(b ^ expect)
		}
		flips[row-lo] += n
	})
	total := 0
	for _, f := range flips {
		total += f
	}
	return float64(total) / float64(reads*(hi-lo)*d.Geom.RowBytes*8)
}

// rowPattern is what writePattern stores in every byte of row.
func rowPattern(pattern byte, row int) byte {
	if row%2 == 1 {
		return ^pattern
	}
	return pattern
}

// writePattern fills every row with pattern, inverted on odd rows.
func writePattern(d *dram.Device, pattern byte) {
	rowBytes := d.Geom.RowBytes
	buf := make([]byte, rowBytes)
	inv := make([]byte, rowBytes)
	for i := range buf {
		buf[i] = pattern
		inv[i] = ^pattern
	}
	for row := 0; row < d.Geom.Rows(); row++ {
		if row%2 == 0 {
			d.Write(row*rowBytes, buf)
		} else {
			d.Write(row*rowBytes, inv)
		}
	}
}

// MaxReads is the most reads per pattern a characterization over the four
// DefaultPatterns can count: a profile's per-cell counters are 32 bits wide.
const MaxReads = math.MaxUint32 / 4

// CharacterizeConfig controls profile collection, which writes and reads
// each of the DefaultPatterns in turn.
type CharacterizeConfig struct {
	// Reads is the read count per pattern; it must not exceed MaxReads,
	// which fills the profile's 32-bit counters, and Characterize panics
	// rather than wrap them.
	Reads int
	// MaxRows caps how many rows are profiled (0 = all); profiling a
	// subset is the speed/coverage trade-off REAPER-style methodologies
	// exploit (§6.2).
	MaxRows int
}

// Characterize collects per-cell flip observations from the module at op
// and returns a profile errormodel can fit. Each pattern is written with
// row inversion and read cfg.Reads times. Only flips are counted from the
// data read back: how often a cell was read holding a 1 or a 0 follows from
// the patterns and the read count alone.
func Characterize(d *dram.Device, op dram.OperatingPoint, cfg CharacterizeConfig) *errormodel.Profile {
	if cfg.Reads <= 0 {
		cfg.Reads = 4
	}
	if uint64(len(DefaultPatterns))*uint64(cfg.Reads) > math.MaxUint32 {
		panic(fmt.Sprintf("softmc: %d patterns × %d reads overflow a profile's 32-bit counters", len(DefaultPatterns), cfg.Reads))
	}
	rows := d.Geom.Rows()
	if cfg.MaxRows > 0 && cfg.MaxRows < rows {
		rows = cfg.MaxRows
	}
	rowBits := d.Geom.RowBytes * 8
	prof := &errormodel.Profile{RowBits: rowBits, Cells: make([]errormodel.CellObs, rows*rowBits)}

	for _, pattern := range DefaultPatterns {
		writePattern(d, pattern)
		d.SetOperatingPoint(op)
		d.ReadRows(0, rows, cfg.Reads, func(_, row int, data []byte) {
			expect := rowPattern(pattern, row)
			cells := prof.Cells[row*rowBits : (row+1)*rowBits]
			for i, b := range data {
				for diff := b ^ expect; diff != 0; diff &= diff - 1 {
					bit := bits.TrailingZeros8(diff)
					if expect>>uint(bit)&1 == 1 {
						cells[i*8+bit].OnesFlips++
					} else {
						cells[i*8+bit].ZerosFlips++
					}
				}
			}
		})
		d.SetOperatingPoint(dram.Nominal())
	}

	// A cell held a 1 for cfg.Reads reads of every pattern whose byte, as
	// stored in the cell's row, has the cell's bit set.
	var onesReads [2][8]uint32 // by row parity and bit within the byte
	for _, pattern := range DefaultPatterns {
		for parity := range onesReads {
			for bit := range onesReads[parity] {
				if rowPattern(pattern, parity)>>uint(bit)&1 == 1 {
					onesReads[parity][bit] += uint32(cfg.Reads)
				}
			}
		}
	}
	allReads := uint32(len(DefaultPatterns) * cfg.Reads)
	for i := range prof.Cells {
		ones := onesReads[i/rowBits%2][i%8]
		prof.Cells[i].OnesReads, prof.Cells[i].ZerosReads = ones, allReads-ones
	}
	return prof
}

// PartitionBER measures each partition's bit error rate under its currently
// configured operating point, using the given data pattern. This is the
// per-partition characterization EDEN's fine-grained mapping consumes.
func PartitionBER(d *dram.Device, pattern byte, reads int) []float64 {
	writePattern(d, pattern)
	rowsPerPart := d.Geom.Rows() / d.NumPartitions()
	out := make([]float64, d.NumPartitions())
	for p := range out {
		start, _ := d.PartitionRange(p)
		startRow := start / d.Geom.RowBytes
		out[p] = measureRows(d, startRow, startRow+rowsPerPart, pattern, reads)
	}
	return out
}

// ProfilingCost estimates the wall-clock seconds a real module of the given
// geometry would need for a full characterization pass (the paper reports
// under 4 minutes for a 16-bank 4GB DDR4 module, §6.2). The estimate counts
// one write and cfg.Reads reads of every row per pattern at nominal row
// timing with banks operated in parallel, plus the SoftMC host–FPGA
// buffering and instruction-batching overhead per row pass that the paper
// identifies as its infrastructure's bottleneck (§6.1).
func ProfilingCost(geom dram.Geometry, cfg CharacterizeConfig, timing dram.Timing) float64 {
	if cfg.Reads <= 0 {
		cfg.Reads = 4
	}
	// One row pass = ACT + burst transfers + PRE. A 64-byte burst at
	// DDR4-2400 takes ~6.7 ns; bursts dominate for 2KB+ rows. The SoftMC
	// host round trip adds ~330 µs per row pass, which dominates in
	// practice and is what limits the paper's FPGA rig.
	const (
		burstNS        = 6.67
		hostOverheadNS = 330e3
	)
	bursts := float64(geom.RowBytes) / 64
	rowPass := timing.TRCD + timing.TRP + bursts*burstNS + hostOverheadNS
	passes := float64(len(DefaultPatterns)) * float64(1+cfg.Reads)
	rowsPerBank := float64(geom.SubarraysPerBank * geom.RowsPerSubarray)
	return rowsPerBank * rowPass * passes * 1e-9
}
