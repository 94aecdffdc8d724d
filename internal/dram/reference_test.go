package dram

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/parallel"
)

// readReference is Read as it stood before flips were decided against a
// bound: one flipProb, logarithm included, per bit read. It is the oracle
// Read and ReadRows are held to.
func (d *Device) readReference(addr, n int) []byte {
	if addr < 0 || addr+n > len(d.data) {
		panic(fmt.Sprintf("dram: read [%d, %d) out of range", addr, addr+n))
	}
	d.accessCounter++
	out := make([]byte, n)
	copy(out, d.data[addr:addr+n])
	rowBytes := d.Geom.RowBytes

	// Cache per-partition base rates for this call.
	type rates struct{ v, t float64 }
	partRates := make([]rates, len(d.partitions))
	for i, op := range d.partitions {
		v, t := d.Profile.baseBER(op)
		partRates[i] = rates{v, t}
	}

	d.readBits += uint64(8 * n)
	for i := 0; i < n; i++ {
		a := addr + i
		pr := partRates[d.addrPartition(a)]
		if pr.v == 0 && pr.t == 0 {
			continue
		}
		// Importance-sampled skip: gate each byte with probability
		// min(1, bound) where bound overestimates the byte's total flip
		// probability (spatial factors are Exponential(1); 32 bounds all
		// but an e^-32 tail), then rescale the surviving bits' flip
		// probabilities by 1/bound so the marginal rate is unchanged.
		gateScale := 1.0
		maxByteProb := 8 * (pr.v*d.Profile.VoltOneBias + pr.t*d.Profile.TRCDZeroBias) * 32
		if maxByteProb < 1 {
			if uniform(hash3(d.seed, d.accessCounter*0x51ee7, uint64(a))) >= maxByteProb {
				continue
			}
			gateScale = 1 / maxByteProb
		}
		row := a / rowBytes
		for bit := 0; bit < 8; bit++ {
			bitline := (a%rowBytes)*8 + bit
			stored := out[i]>>uint(bit)&1 == 1
			p := d.flipProb(pr.v, pr.t, row, bitline, uint64(a)*8+uint64(bit), stored) * gateScale
			if p <= 0 {
				continue
			}
			u := uniform(hash3(d.seed^0xF11F, d.accessCounter, uint64(a)*8+uint64(bit)))
			if u < p {
				out[i] ^= 1 << uint(bit)
				d.flipCount++
			}
		}
	}
	return out
}

// stressOps are the operating points the oracle tests sweep: the byte gate
// is off at VDD 1.05 for vendor A (maxByteProb ≥ 1) and on at the milder
// 1.12; tRCD 7 ns drives vendor C into the 0.5 clamp.
func stressOps() map[string]OperatingPoint {
	op := func(vdd, trcd float64) OperatingPoint {
		o := Nominal()
		o.VDD, o.Timing.TRCD = vdd, trcd
		return o
	}
	nom := NominalTiming().TRCD
	return map[string]OperatingPoint{
		"nominal": Nominal(),
		"vdd1.05": op(1.05, nom),
		"vdd1.12": op(1.12, nom),
		"trcd7":   op(NominalVDD, 7),
		"both":    op(1.10, 8),
	}
}

// oracleDevices hands run two identically built and configured devices, one
// per reader under comparison, for every vendor × operating-point layout ×
// data pattern, on both vector paths.
func oracleDevices(t *testing.T, seed uint64, run func(t *testing.T, d, ref *Device)) {
	ops := stressOps()
	layouts := map[string][]OperatingPoint{
		"mixed4": {ops["nominal"], ops["vdd1.05"], ops["vdd1.12"], ops["both"]},
		"mixed2": {ops["trcd7"], ops["vdd1.12"]},
	}
	for name, op := range ops {
		layouts[name] = []OperatingPoint{op}
	}
	for _, vendor := range Vendors() {
		for name, layout := range layouts {
			for _, pattern := range []byte{0x00, 0xFF, 0xAA} {
				t.Run(fmt.Sprintf("%s/%s/%#02x", vendor.Name, name, pattern), func(t *testing.T) {
					forEachVecPath(t, func(t *testing.T) {
						var devs [2]*Device
						for i := range devs {
							d := NewDevice(testGeom(), vendor, seed)
							if err := d.DefinePartitions(len(layout)); err != nil {
								t.Fatal(err)
							}
							for p, op := range layout {
								if err := d.SetPartitionOp(p, op); err != nil {
									t.Fatal(err)
								}
							}
							fill := make([]byte, d.Capacity())
							for j := range fill {
								fill[j] = pattern
								if j/d.Geom.RowBytes%2 == 1 {
									fill[j] = ^pattern
								}
							}
							d.Write(0, fill)
							devs[i] = d
						}
						run(t, devs[0], devs[1])
					})
				})
			}
		}
	}
}

func sameState(t *testing.T, what string, got, want *Device) {
	t.Helper()
	gb, gf := got.Stats()
	wb, wf := want.Stats()
	if gb != wb || gf != wf || got.accessCounter != want.accessCounter {
		t.Fatalf("%s: stats (%d bits, %d flips) counter %d; reference (%d, %d) counter %d",
			what, gb, gf, got.accessCounter, wb, wf, want.accessCounter)
	}
}

// TestReadMatchesReference holds Read to the per-bit evaluation on returned
// bytes and Stats, over consecutive reads of the whole module and of a span
// that starts mid-row and crosses rows and partitions.
func TestReadMatchesReference(t *testing.T) {
	flipped := uint64(0)
	oracleDevices(t, 77, func(t *testing.T, d, ref *Device) { flipped += readsMatchReference(t, d, ref) })
	if flipped < 10000 {
		t.Fatalf("only %d flips compared: the sweep does not stress the device", flipped)
	}
}

// TestReadMatchesReferenceAtPlantedCells gives one cell of the test module,
// by choice of seed, an extreme weakness draw and holds reads of its row to
// the per-bit evaluation. "weakest" is the largest finite factor, the one the
// row bound is taken at, so the cell's own bound can reach the row's. "inf"
// is the +Inf factor, which no row bound covers: NewDevice must raise its
// flag (a random seed puts such a cell in the module with odds near 2^-35)
// and Read then draws against 0.5·scale, not the row bound.
func TestReadMatchesReferenceAtPlantedCells(t *testing.T) {
	cell := uint64(8*(5*testGeom().RowBytes+100) + 3)
	for _, c := range []struct {
		name string
		draw uint64
	}{{"weakest", 1<<53 - 2}, {"inf", 1<<53 - 1}} {
		t.Run(c.name, func(t *testing.T) {
			seed := plantSeed(cell, c.draw)
			if h := hash3(seed, 0xCE11, cell); h>>11 != c.draw {
				t.Fatalf("seed %#x gives cell %#x the hash %#x, want draw %#x", seed, cell, h, c.draw)
			}
			oracleDevices(t, seed, func(t *testing.T, d, ref *Device) {
				if d.infCell != (c.draw == 1<<53-1) {
					t.Fatalf("NewDevice's +Inf flag is %v", d.infCell)
				}
				rowBytes := d.Geom.RowBytes
				start := int(cell/8) / rowBytes * rowBytes
				for read := 0; read < 40; read++ {
					if got, want := d.Read(start, rowBytes), ref.readReference(start, rowBytes); !bytes.Equal(got, want) {
						t.Fatalf("read %d of the planted cell's row differs from the reference", read)
					}
				}
				sameState(t, "Read", d, ref)
			})
		})
	}
}

// plantSeed returns a seed under which cell's weakness hash has the 53-bit
// draw given. hash3(seed, 0xCE11, cell) finalizes hashKey(seed, 0xCE11) ^
// cell·m1, and unhash3 under a zero key returns the word whose product with
// m1 the finalizer takes to that draw.
func plantSeed(cell, draw uint64) uint64 {
	const m1 = 0xbf58476d1ce4e5b9
	return unhash3(0, 0, draw<<11)*m1 ^ cell*m1 ^ hashKey(0, 0xCE11)
}

// readsMatchReference reads d and ref alike three times over and reports
// the flips d injected.
func readsMatchReference(t *testing.T, d, ref *Device) uint64 {
	spans := [][2]int{{0, d.Capacity()}, {d.Geom.RowBytes/2 + 3, d.Capacity()/2 + 5}}
	for read := 0; read < 3; read++ {
		for _, s := range spans {
			if got, want := d.Read(s[0], s[1]), ref.readReference(s[0], s[1]); !bytes.Equal(got, want) {
				t.Fatalf("read %d of [%d, +%d) differs from the reference", read, s[0], s[1])
			}
			sameState(t, "Read", d, ref)
		}
	}
	_, f := d.Stats()
	return f
}

// TestReadRowsMatchesReference holds ReadRows, at one worker and fanned
// out, to the loop of reference reads it stands for: the same bytes for
// every (pass, row), in pass order per row, and the same device state.
func TestReadRowsMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		prev := parallel.Workers()
		parallel.SetWorkers(workers)
		t.Cleanup(func() { parallel.SetWorkers(prev) })
		oracleDevices(t, 77, func(t *testing.T, d, ref *Device) {
			rowBytes := d.Geom.RowBytes
			for _, span := range [][2]int{{0, d.Geom.Rows()}, {5, 23}, {7, 7}} {
				lo, hi := span[0], span[1]
				const passes = 3
				want := make([][]byte, passes*(hi-lo))
				for pass := 0; pass < passes; pass++ {
					for row := lo; row < hi; row++ {
						want[pass*(hi-lo)+row-lo] = ref.readReference(row*rowBytes, rowBytes)
					}
				}
				nextPass := make([]int, hi-lo)
				d.ReadRows(lo, hi, passes, func(pass, row int, data []byte) {
					if pass != nextPass[row-lo] {
						t.Errorf("row %d: pass %d visited when %d was due", row, pass, nextPass[row-lo])
					}
					nextPass[row-lo]++
					if !bytes.Equal(data, want[pass*(hi-lo)+row-lo]) {
						t.Errorf("pass %d row %d differs from the reference", pass, row)
					}
				})
				for i, n := range nextPass {
					if n != passes {
						t.Fatalf("row %d visited %d times, want %d", lo+i, n, passes)
					}
				}
				sameState(t, fmt.Sprintf("ReadRows[%d,%d) at %d workers", lo, hi, workers), d, ref)
			}
		})
	}
}

// TestFlipBoundDominatesFlipProb checks the inequality the bound-first read
// rests on, bound ≥ flipProb·scale, for over a million cells of gated and
// ungated partitions under every vendor, and for cells constructed to carry
// the extreme weakness hashes: a 53-bit draw of 0, of 2^53-1 (whose factor
// is +Inf), and the values either side of every power of two, where
// expFactorBound steps.
func TestFlipBoundDominatesFlipProb(t *testing.T) {
	checked := 0
	for _, vendor := range Vendors() {
		d := NewDevice(testGeom(), vendor, 5)
		check := func(row, bitline int, cell uint64) {
			h := hash3(d.seed, 0xCE11, cell)
			wordlineTerm := vendor.WordlineWeight * d.wordlineFactor[row]
			for _, op := range stressOps() {
				d.SetOperatingPoint(op)
				pr := d.rates[0]
				for _, one := range []bool{false, true} {
					rate := pr.zero
					if one {
						rate = pr.one
					}
					bound := d.flipBound(rate, pr.scale, expFactorBound[bits.Len64(^h>>11)], d.bitlineTerm[bitline], wordlineTerm)
					exact := d.flipProb(pr.v, pr.t, row, bitline, cell, one) * pr.scale
					top := 0.5 * pr.scale
					if !(bound >= exact) || exact > top {
						t.Fatalf("vendor %s op %+v cell %#x (hash %#x) stored %v: bound %v, top %v, exact %v",
							vendor.Name, op, cell, h, one, bound, top, exact)
					}
					checked++
				}
			}
		}
		rowBits := d.Geom.RowBytes * 8
		for cell := 0; cell < 40000; cell++ {
			check(cell/rowBits, cell%rowBits, uint64(cell))
		}
		draws := []uint64{0, 1<<53 - 1}
		for j := uint(0); j < 53; j++ {
			for _, c := range []uint64{1<<j - 1, 1 << j, 1<<j + 1} {
				draws = append(draws, (1<<53-1-c)&(1<<53-1))
			}
		}
		for _, draw := range draws {
			for _, low := range []uint64{0, 1<<11 - 1} {
				h := draw<<11 | low
				cell := unhash3(d.seed, 0xCE11, h)
				if hash3(d.seed, 0xCE11, cell) != h {
					t.Fatalf("unhash3 did not invert hash3 at %#x", h)
				}
				if n := bits.Len64(^h >> 11); !(expFactorBound[n]*(1+1e-9) >= expFactor(h)) {
					t.Fatalf("hash %#x: expFactorBound[%d] = %v below expFactor %v", h, n, expFactorBound[n], expFactor(h))
				}
				check(3, 17, cell)
			}
		}
	}
	if !math.IsInf(expFactor(math.MaxUint64), 1) {
		t.Fatal("the all-ones draw no longer saturates expFactor; revisit expFactorBound[0]")
	}
	if checked < 1000000 {
		t.Fatalf("checked %d cells, want over a million", checked)
	}
}
