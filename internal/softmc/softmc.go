// Package softmc drives reduced-parameter characterization of a simulated
// approximate DRAM module, playing the role of the paper's FPGA-based
// SoftMC infrastructure (§6.1): it writes worst-case data patterns
// (inverted in consecutive rows, §3.4), reads them back at reduced voltage
// and timing parameters, measures bit error rates, and collects the
// per-cell observations that errormodel fits its four models to.
package softmc

import (
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
	rowBytes := d.Geom.RowBytes
	flips, total := 0, 0
	for r := 0; r < reads; r++ {
		for row := 0; row < d.Geom.Rows(); row++ {
			expect := pattern
			if row%2 == 1 {
				expect = ^pattern
			}
			got := d.Read(row*rowBytes, rowBytes)
			for _, b := range got {
				flips += bits.OnesCount8(b ^ expect)
				total += 8
			}
		}
	}
	d.SetOperatingPoint(dram.Nominal())
	return float64(flips) / float64(total)
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

// CharacterizeConfig controls profile collection.
type CharacterizeConfig struct {
	Patterns []byte
	Reads    int // reads per pattern
	// MaxRows caps how many rows are profiled (0 = all); profiling a
	// subset is the speed/coverage trade-off REAPER-style methodologies
	// exploit (§6.2).
	MaxRows int
}

// Characterize collects per-cell flip observations from the module at op
// and returns a profile errormodel can fit. Each pattern is written with
// row inversion and read cfg.Reads times.
func Characterize(d *dram.Device, op dram.OperatingPoint, cfg CharacterizeConfig) *errormodel.Profile {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = DefaultPatterns
	}
	if cfg.Reads <= 0 {
		cfg.Reads = 4
	}
	rows := d.Geom.Rows()
	if cfg.MaxRows > 0 && cfg.MaxRows < rows {
		rows = cfg.MaxRows
	}
	rowBytes := d.Geom.RowBytes
	rowBits := rowBytes * 8
	// Dense per-cell counters over the profiled region.
	type counters struct {
		onesReads, zerosReads uint16
		onesFlips, zerosFlips uint16
	}
	cells := make([]counters, rows*rowBits)

	for _, pattern := range cfg.Patterns {
		writePattern(d, pattern)
		d.SetOperatingPoint(op)
		for r := 0; r < cfg.Reads; r++ {
			for row := 0; row < rows; row++ {
				expect := pattern
				if row%2 == 1 {
					expect = ^pattern
				}
				got := d.Read(row*rowBytes, rowBytes)
				for i, b := range got {
					diff := b ^ expect
					for bit := 0; bit < 8; bit++ {
						c := &cells[row*rowBits+i*8+bit]
						stored := expect>>uint(bit)&1 == 1
						flipped := diff>>uint(bit)&1 == 1
						if stored {
							c.onesReads++
							if flipped {
								c.onesFlips++
							}
						} else {
							c.zerosReads++
							if flipped {
								c.zerosFlips++
							}
						}
					}
				}
			}
		}
		d.SetOperatingPoint(dram.Nominal())
	}

	prof := &errormodel.Profile{RowBits: rowBits}
	prof.Cells = make([]errormodel.CellObs, 0, len(cells))
	for idx, c := range cells {
		prof.Cells = append(prof.Cells, errormodel.CellObs{
			Row:        idx / rowBits,
			Bitline:    idx % rowBits,
			OnesReads:  int(c.onesReads),
			ZerosReads: int(c.zerosReads),
			OnesFlips:  int(c.onesFlips),
			ZerosFlips: int(c.zerosFlips),
		})
	}
	return prof
}

// PartitionBER measures each partition's bit error rate under its currently
// configured operating point, using the given data pattern. This is the
// per-partition characterization EDEN's fine-grained mapping consumes.
func PartitionBER(d *dram.Device, pattern byte, reads int) []float64 {
	writePattern(d, pattern)
	rowBytes := d.Geom.RowBytes
	rowsPerPart := d.Geom.Rows() / d.NumPartitions()
	out := make([]float64, d.NumPartitions())
	for p := 0; p < d.NumPartitions(); p++ {
		flips, total := 0, 0
		start, _ := d.PartitionRange(p)
		startRow := start / rowBytes
		for r := 0; r < reads; r++ {
			for row := startRow; row < startRow+rowsPerPart; row++ {
				expect := pattern
				if row%2 == 1 {
					expect = ^pattern
				}
				got := d.Read(row*rowBytes, rowBytes)
				for _, b := range got {
					flips += bits.OnesCount8(b ^ expect)
					total += 8
				}
			}
		}
		out[p] = float64(flips) / float64(total)
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
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = DefaultPatterns
	}
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
	passes := float64(len(cfg.Patterns)) * float64(1+cfg.Reads)
	rowsPerBank := float64(geom.SubarraysPerBank * geom.RowsPerSubarray)
	return rowsPerBank * rowPass * passes * 1e-9
}
