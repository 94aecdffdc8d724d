package dram

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/parallel"
)

// Device is one simulated approximate DRAM module. Writes store data
// faithfully; reads performed while a partition's operating point is below
// nominal flip bits on the way out, leaving the stored data intact (the
// paper's EDEN flow likewise re-profiles rather than assuming persistent
// corruption, §4).
//
// The device is divided into partitions at subarray granularity; each
// partition has its own operating point, which is how EDEN's fine-grained
// mapping applies different voltage/latency settings to different DNN data
// (§3.4, §5).
type Device struct {
	Geom    Geometry
	Profile VendorProfile
	seed    uint64

	data []byte
	// partition index per subarray; partition 0 always exists.
	partOfSubarray []int
	partitions     []OperatingPoint
	// rates[p] is what a read needs of partitions[p], derived whenever the
	// operating point is set rather than on every Read.
	rates []partRate

	// Deterministic per-read noise: advanced on every Read call.
	accessCounter uint64

	// Precomputed per-bitline and per-wordline weakness factors.
	bitlineFactor  []float64
	wordlineFactor []float64
	// For flipBound: the bitline term of flipProb's blend, its largest value,
	// and the cell term's weight floored at zero.
	bitlineTerm    []float64
	maxBitlineTerm float64
	cellWeight     float64
	infCell        bool // whether a cell of the module has the +Inf factor (rowDraw)

	// Statistics.
	readBits  uint64
	flipCount uint64
}

// NewDevice creates a module with the given geometry, vendor profile and
// seed. It starts with a single partition at the nominal operating point.
func NewDevice(geom Geometry, profile VendorProfile, seed uint64) *Device {
	d := &Device{
		Geom:           geom,
		Profile:        profile,
		seed:           seed,
		data:           make([]byte, geom.Capacity()),
		partOfSubarray: make([]int, geom.Subarrays()),
		cellWeight:     math.Max(1-profile.BitlineWeight-profile.WordlineWeight, 0),
	}
	d.setPartitions([]OperatingPoint{Nominal()})
	rowBits := geom.RowBytes * 8
	d.bitlineFactor = make([]float64, rowBits)
	d.bitlineTerm = make([]float64, rowBits)
	for i := range d.bitlineFactor {
		d.bitlineFactor[i] = expFactor(hash3(seed, 0xB17, uint64(i)))
		d.bitlineTerm[i] = profile.BitlineWeight * d.bitlineFactor[i]
		d.maxBitlineTerm = math.Max(d.maxBitlineTerm, d.bitlineTerm[i]) // NaN if any is
	}
	for _, cell := range infCells(seed) {
		d.infCell = d.infCell || cell < uint64(len(d.data))*8
	}
	d.wordlineFactor = make([]float64, geom.Rows())
	for i := range d.wordlineFactor {
		d.wordlineFactor[i] = expFactor(hash3(seed, 0x10C, uint64(i)))
	}
	return d
}

// expFactor maps a uniform hash to an Exponential(1) sample, giving some
// bitlines/wordlines/cells much higher failure rates than others.
func expFactor(u uint64) float64 {
	f := (float64(u>>11) + 0.5) / float64(1<<53)
	return -math.Log(1 - f)
}

// uniform converts a hash to a float64 in [0,1).
func uniform(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// Capacity returns the module size in bytes.
func (d *Device) Capacity() int { return d.Geom.Capacity() }

// DefinePartitions splits the module into n equal partitions of consecutive
// subarrays, all initially at the nominal operating point. n must divide
// the subarray count.
func (d *Device) DefinePartitions(n int) error {
	if n <= 0 || d.Geom.Subarrays()%n != 0 {
		return fmt.Errorf("dram: cannot split %d subarrays into %d partitions", d.Geom.Subarrays(), n)
	}
	per := d.Geom.Subarrays() / n
	ops := make([]OperatingPoint, n)
	for i := range ops {
		ops[i] = Nominal()
	}
	d.setPartitions(ops)
	for s := range d.partOfSubarray {
		d.partOfSubarray[s] = s / per
	}
	return nil
}

// NumPartitions returns the current partition count.
func (d *Device) NumPartitions() int { return len(d.partitions) }

// PartitionSize returns the byte capacity of one partition.
func (d *Device) PartitionSize() int { return d.Geom.Capacity() / len(d.partitions) }

// PartitionRange returns the [start, end) byte range of partition p under
// the device's linear address map (subarray-major).
func (d *Device) PartitionRange(p int) (start, end int) {
	size := d.PartitionSize()
	return p * size, (p + 1) * size
}

// SetOperatingPoint applies op to every partition (coarse-grained mapping).
func (d *Device) SetOperatingPoint(op OperatingPoint) {
	for i := range d.partitions {
		d.setOp(i, op)
	}
}

// SetPartitionOp applies op to a single partition (fine-grained mapping).
func (d *Device) SetPartitionOp(p int, op OperatingPoint) error {
	if p < 0 || p >= len(d.partitions) {
		return fmt.Errorf("dram: partition %d out of range", p)
	}
	d.setOp(p, op)
	return nil
}

// PartitionOp returns partition p's operating point.
func (d *Device) PartitionOp(p int) OperatingPoint { return d.partitions[p] }

// addrPartition returns the partition containing a byte address.
func (d *Device) addrPartition(addr int) int {
	sub := addr / (d.Geom.RowsPerSubarray * d.Geom.RowBytes)
	return d.partOfSubarray[sub]
}

// Write stores data at addr reliably. DRAM writes at reduced parameters can
// also fail, but like the paper we focus error injection on the read path,
// which dominates inference traffic.
func (d *Device) Write(addr int, data []byte) {
	if addr < 0 || addr+len(data) > len(d.data) {
		panic(fmt.Sprintf("dram: write [%d, %d) out of range", addr, addr+len(data)))
	}
	copy(d.data[addr:], data)
}

// partRate is one partition's operating point as the read path consumes
// it: the vendor curve evaluated once, not per Read.
type partRate struct {
	v, t float64 // baseBER's voltage and tRCD components
	// one and zero are flipProb's rate for a stored 1 and a stored 0.
	one, zero float64
	// gate is the byte gate's pass probability (see readInto) and scale
	// rescales the flip probability of a bit whose byte passed.
	gate, scale float64
	// gateDraw is ⌈gate·2^53⌉ when gate < 1: uniform(h) < gate exactly when
	// h>>11 < gateDraw, as scaling by 2^53 does not round and an integer is
	// below a real exactly when below its ceiling.
	gateDraw uint64
}

// setPartitions replaces the partition table.
func (d *Device) setPartitions(ops []OperatingPoint) {
	d.partitions = ops
	d.rates = make([]partRate, len(ops))
	for i, op := range ops {
		d.setOp(i, op)
	}
}

// setOp records partition p's operating point and the rates it implies.
func (d *Device) setOp(p int, op OperatingPoint) {
	d.partitions[p] = op
	v, t := d.Profile.baseBER(op)
	r := partRate{
		v: v, t: t,
		one:   v*d.Profile.VoltOneBias + t*(2-d.Profile.TRCDZeroBias),
		zero:  v*(2-d.Profile.VoltOneBias) + t*d.Profile.TRCDZeroBias,
		gate:  8 * (v*d.Profile.VoltOneBias + t*d.Profile.TRCDZeroBias) * 32,
		scale: 1,
	}
	if r.gate < 1 {
		r.scale = 1 / r.gate
		r.gateDraw = uint64(math.Ceil(max(r.gate, 0) * (1 << 53)))
	}
	d.rates[p] = r
}

// Read returns n bytes starting at addr, with bit errors injected according
// to each byte's partition operating point. Each call sees an independent
// (but deterministic, seed-derived) error draw: it advances the access
// counter by one, and the bytes returned are a function of (seed, stored
// data, operating points, that counter value) only.
//
// A bit flips when its draw u falls below its flip probability p. Nearly
// every bit is decided without evaluating p — and the logarithm inside it —
// by comparing u against upper bounds of p, the row's (rowDraw) and then the
// cell's (flipBound); the exact p runs only for the bits that pass both, so
// the outcome is the one the plain per-bit evaluation gives. The tests hold Read and ReadRows to that evaluation
// (readReference), on bytes and Stats.
func (d *Device) Read(addr, n int) []byte {
	if addr < 0 || addr+n > len(d.data) {
		panic(fmt.Sprintf("dram: read [%d, %d) out of range", addr, addr+n))
	}
	d.accessCounter++
	out := make([]byte, n)
	d.readBits += uint64(8 * n)
	m := min(n, d.Geom.RowBytes)
	d.flipCount += d.readInto(out, make([]uint64, m), make([]uint8, m), addr, d.accessCounter)
	return out
}

// ReadRows reads every row of [lo, hi) passes times and hands each
// read-back row to visit. It is the loop
//
//	for pass := 0; pass < passes; pass++ {
//		for row := lo; row < hi; row++ {
//			visit(pass, row, d.Read(row*RowBytes, RowBytes))
//		}
//	}
//
// with the same bytes per (pass, row) and the same access counter and
// Stats afterwards, but rows fan out over the worker pool: each row-read
// draws at the counter value its place in that serial order gives it. One
// row's passes reach visit in order on one goroutine; different rows may be
// visited concurrently, so visit must keep what it records per row. data is
// only valid during the call.
func (d *Device) ReadRows(lo, hi, passes int, visit func(pass, row int, data []byte)) {
	if lo < 0 || hi > d.Geom.Rows() || lo > hi || passes < 0 {
		panic(fmt.Sprintf("dram: read rows [%d, %d) x %d out of range", lo, hi, passes))
	}
	rows, rowBytes := hi-lo, d.Geom.RowBytes
	base := d.accessCounter
	var flips atomic.Uint64
	parallel.For(rows, 1, func(a, b int) {
		buf, starts, masks := make([]byte, rowBytes), make([]uint64, rowBytes), make([]uint8, rowBytes)
		var n uint64
		for r := a; r < b; r++ {
			for pass := 0; pass < passes; pass++ {
				n += d.readInto(buf, starts, masks, (lo+r)*rowBytes, base+uint64(pass*rows+r)+1)
				visit(pass, lo+r, buf)
			}
		}
		flips.Add(n)
	})
	reads := uint64(passes * rows)
	d.accessCounter = base + reads
	d.readBits += reads * uint64(8*rowBytes)
	d.flipCount += flips.Load()
}

// readInto fills out with the bytes stored at addr as one read with access
// counter value counter returns them, and reports how many bits it
// flipped. It writes no device state, so reads of different counter values
// may run concurrently. starts and masks are its scratch (see belowMasks),
// at least as long as out or a row, whichever is shorter.
func (d *Device) readInto(out []byte, starts []uint64, masks []uint8, addr int, counter uint64) (flips uint64) {
	copy(out, d.data[addr:addr+len(out)])
	rowBytes := d.Geom.RowBytes
	gateKey := hashKey(d.seed, counter*0x51ee7)
	drawKey := hashKey(d.seed^0xF11F, counter)
	cellKey := hashKey(d.seed, 0xCE11)
	for i := 0; i < len(out); {
		// The bytes up to the end of the row share a partition and a wordline.
		a0 := addr + i
		row := a0 / rowBytes
		seg := out[i:min(len(out), i+rowBytes-a0%rowBytes)]
		i += len(seg)
		pr := &d.rates[d.addrPartition(a0)]
		if pr.v == 0 && pr.t == 0 {
			continue
		}
		// Importance-sampled skip: gate each byte with probability
		// min(1, bound) where bound overestimates the byte's total flip
		// probability (spatial factors are Exponential(1); 32 bounds all
		// but an e^-32 tail), then rescale the surviving bits' flip
		// probabilities by 1/bound so the marginal rate is unchanged. The
		// gate draws of bytes a0+8k..a0+8k+7 make mask k; every byte that
		// passes puts its first cell in cells.
		cells := starts[:len(seg)]
		if pr.gate < 1 {
			gates := masks[:(len(seg)+7)/8]
			for k := range gates {
				cells[k] = uint64(a0 + 8*k)
			}
			belowMasks(gateKey, cells[:len(gates)], pr.gateDraw, gates)
			cells = cells[:0]
			for k, m := range gates {
				for ; m != 0; m &= m - 1 {
					if b := 8*k + bits.TrailingZeros8(m); b < len(seg) {
						cells = append(cells, uint64(a0+b)*8)
					}
				}
			}
		} else {
			for b := range cells {
				cells[b] = uint64(a0+b) * 8
			}
		}
		// Draw the eight cells from each, keeping a bit per draw below the
		// row's threshold: a draw at or above it cannot flip its bit.
		wordlineTerm := d.Profile.WordlineWeight * d.wordlineFactor[row]
		below := masks[:len(cells)]
		belowMasks(drawKey, cells, d.rowDraw(pr, wordlineTerm), below)
		for k, m := range below {
			firstCell := cells[k]
			b := int(firstCell/8) - addr
			stored := out[b]
			bitline := int(firstCell) - row*rowBytes*8
			for ; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros8(m)
				cell := firstCell + uint64(bit)
				u := uniform(hashWith(drawKey, cell))
				one := stored>>uint(bit)&1 == 1
				rate := pr.zero
				if one {
					rate = pr.one
				}
				// A NaN bound compares false and falls through to the exact
				// evaluation.
				cellFactor := expFactorBound[bits.Len64(^hashWith(cellKey, cell)>>11)]
				if u >= d.flipBound(rate, pr.scale, cellFactor, d.bitlineTerm[bitline+bit], wordlineTerm) {
					continue
				}
				if u < d.flipProb(pr.v, pr.t, row, bitline+bit, cell, one)*pr.scale {
					out[b] ^= 1 << uint(bit)
					flips++
				}
			}
		}
	}
	return flips
}

// rowDraw is ⌈B·2^53⌉ (see gateDraw) for a bound B of every flipProb·scale
// in a row of partition pr whose wordline term is wordlineTerm: 0.5·scale,
// where flipProb clamps, or, if no cell of the module has the +Inf factor,
// the lower row bound — flipBound at the larger rate, the largest finite
// cell factor and the largest bitline term, at least every cell's
// flipBound since each of its steps is monotone. A B that is NaN,
// negative or not below 1 admits every draw.
func (d *Device) rowDraw(pr *partRate, wordlineTerm float64) uint64 {
	b := 0.5 * pr.scale
	if !d.infCell {
		b = min(b, d.flipBound(max(pr.one, pr.zero), pr.scale, expFactorBound[1], d.maxBitlineTerm, wordlineTerm))
	}
	if !(b >= 0 && b < 1) {
		return 1 << 53
	}
	return uint64(math.Ceil(b * (1 << 53)))
}

// expFactorBound[n] bounds expFactor(h) from above for every hash h whose
// complemented 53-bit draw ^h>>11 has bit length n ≥ 1: that complement c
// is at least 2^(n-1), expFactor's argument 1-f is at least c/2^53 after
// its roundings, and so -ln(1-f) ≤ (54-n)·ln 2. c = 0 is the one draw whose
// f rounds to 1 and whose factor is +Inf.
var expFactorBound = func() (b [54]float64) {
	b[0] = math.Inf(1)
	for n := 1; n < len(b); n++ {
		b[n] = float64(54-n) * math.Ln2
	}
	return b
}()

// flipBound returns an upper bound of flipProb·scale for a cell whose
// Exponential(1) factor is at most cellFactor — expFactorBound's entry for
// its weakness hash — holding a bit of the given rate, without evaluating
// the logarithm: the blend is flipProb's with the hoisted bitline and
// wordline terms (a negative cell weight is floored at zero, which only
// raises the blend), and every later operation — the product with rate, the
// 0.5 clamp, the product with scale — is monotone. The 1e-9 slack is seven
// orders above the few roundings (math.Log's and the hoisted products'
// included) that could otherwise leave the bound an ulp short.
func (d *Device) flipBound(rate, scale, cellFactor, bitlineTerm, wordlineTerm float64) float64 {
	m := d.cellWeight*cellFactor + bitlineTerm + wordlineTerm
	p := rate * m * (1 + 1e-9)
	if p > 0.5 {
		p = 0.5
	}
	return p * scale
}

// flipProb computes one cell's flip probability for this access.
func (d *Device) flipProb(vBER, tBER float64, row, bitline int, cellID uint64, stored bool) float64 {
	// Data-direction bias: stored 1s fail more under voltage stress, stored
	// 0s fail more under tRCD stress. Biases are normalized so uniform data
	// sees the base rate: bias applies to one polarity, 2-bias to the other.
	var v, t float64
	if stored {
		v = vBER * d.Profile.VoltOneBias
		t = tBER * (2 - d.Profile.TRCDZeroBias)
	} else {
		v = vBER * (2 - d.Profile.VoltOneBias)
		t = tBER * d.Profile.TRCDZeroBias
	}
	rate := v + t
	if rate <= 0 {
		return 0
	}
	// Spatial structure: blend per-cell, per-bitline and per-wordline
	// Exponential(1) weakness factors by the vendor's mix.
	bw, ww := d.Profile.BitlineWeight, d.Profile.WordlineWeight
	cellF := expFactor(hash3(d.seed, 0xCE11, cellID))
	m := (1-bw-ww)*cellF + bw*d.bitlineFactor[bitline] + ww*d.wordlineFactor[row]
	p := rate * m
	if p > 0.5 {
		p = 0.5
	}
	return p
}

// Stats returns the number of bits read with error injection active and the
// number of flips injected so far.
func (d *Device) Stats() (readBits, flips uint64) { return d.readBits, d.flipCount }
