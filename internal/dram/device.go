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
	// The bitline term of flipProb's blend, BitlineWeight*bitlineFactor[i],
	// and the cell term's weight floored at zero, for flipBound.
	bitlineTerm []float64
	cellWeight  float64

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
	return -ln(1 - f)
}

func ln(x float64) float64 {
	// Thin wrapper so the hot path reads clearly.
	return math.Log(x)
}

// hash3 mixes three words with a SplitMix64-style finalizer.
func hash3(a, b, c uint64) uint64 { return hashWith(hashKey(a, b), c) }

// hashKey and hashWith are hash3 in two steps, so that a loop over c mixes
// a and b once.
func hashKey(a, b uint64) uint64 { return a ^ b*0x9e3779b97f4a7c15 }

func hashWith(key, c uint64) uint64 {
	z := key ^ c*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
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
	// topDraw is 0.5·scale, which no flip probability exceeds (flipProb
	// clamps at 0.5), in the units of a 53-bit draw: uniform(h) < 0.5·scale
	// exactly when h>>11 < topDraw, since both sides scale by 2^53 without
	// rounding and an integer is below a real exactly when below its ceiling.
	topDraw uint64
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
	}
	r.topDraw = 1 << 53 // every draw, when 0.5·scale ≥ 1 (or NaN: the exact evaluation decides)
	if top := 0.5 * r.scale; top < 1 {
		r.topDraw = uint64(math.Ceil(top * (1 << 53)))
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
// by comparing u against an upper bound of p (flipBound); the exact p runs
// only for the bits that pass, so the outcome is the one the plain per-bit
// evaluation gives. The tests hold Read and ReadRows to that evaluation
// (readReference), on bytes and Stats.
func (d *Device) Read(addr, n int) []byte {
	if addr < 0 || addr+n > len(d.data) {
		panic(fmt.Sprintf("dram: read [%d, %d) out of range", addr, addr+n))
	}
	d.accessCounter++
	out := make([]byte, n)
	d.readBits += uint64(8 * n)
	d.flipCount += d.readInto(out, addr, d.accessCounter)
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
		buf := make([]byte, rowBytes)
		var n uint64
		for r := a; r < b; r++ {
			for pass := 0; pass < passes; pass++ {
				n += d.readInto(buf, (lo+r)*rowBytes, base+uint64(pass*rows+r)+1)
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
// may run concurrently.
func (d *Device) readInto(out []byte, addr int, counter uint64) (flips uint64) {
	copy(out, d.data[addr:addr+len(out)])
	rowBytes := d.Geom.RowBytes
	gateKey := hashKey(d.seed, counter*0x51ee7)
	drawKey := hashKey(d.seed^0xF11F, counter)
	cellKey := hashKey(d.seed, 0xCE11)
	for i := 0; i < len(out); {
		// The bytes up to the end of the row share a partition and a wordline.
		a := addr + i
		row := a / rowBytes
		end := min(len(out), i+rowBytes-a%rowBytes)
		pr := &d.rates[d.addrPartition(a)]
		if pr.v == 0 && pr.t == 0 {
			i = end
			continue
		}
		wordlineTerm := d.Profile.WordlineWeight * d.wordlineFactor[row]
		for ; i < end; i++ {
			a := addr + i
			// Importance-sampled skip: gate each byte with probability
			// min(1, bound) where bound overestimates the byte's total flip
			// probability (spatial factors are Exponential(1); 32 bounds all
			// but an e^-32 tail), then rescale the surviving bits' flip
			// probabilities by 1/bound so the marginal rate is unchanged.
			if pr.gate < 1 && uniform(hashWith(gateKey, uint64(a))) >= pr.gate {
				continue
			}
			// Draw the byte's eight uniforms, keeping a bit per draw below
			// topDraw: an ungated partition passes half of them, at random,
			// and a branch per draw would mispredict every other time.
			firstCell := uint64(a) * 8
			var draws [8]uint64
			var below uint8
			for bit := range draws {
				draws[bit] = hashWith(drawKey, firstCell+uint64(bit)) >> 11
				below |= uint8((draws[bit]-pr.topDraw)>>63) << uint(bit)
			}
			stored := out[i]
			bitline := (a % rowBytes) * 8
			for ; below != 0; below &= below - 1 {
				bit := bits.TrailingZeros8(below)
				cell := firstCell + uint64(bit)
				u := float64(draws[bit]) / float64(1<<53)
				one := stored>>uint(bit)&1 == 1
				rate := pr.zero
				if one {
					rate = pr.one
				}
				// A NaN bound compares false and falls through to the exact
				// evaluation.
				if u >= d.flipBound(rate, pr.scale, hashWith(cellKey, cell), d.bitlineTerm[bitline+bit], wordlineTerm) {
					continue
				}
				if u < d.flipProb(pr.v, pr.t, row, bitline+bit, cell, one)*pr.scale {
					out[i] ^= 1 << uint(bit)
					flips++
				}
			}
		}
	}
	return flips
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

// flipBound returns an upper bound of flipProb·scale for the cell whose
// weakness hash is cellHash, holding a bit of the given rate, without
// evaluating the logarithm: the cell's Exponential(1) factor is replaced by
// expFactorBound, the blend is flipProb's with the hoisted bitline and
// wordline terms (a negative cell weight is floored at zero, which only
// raises the blend), and every later operation — the product with rate, the
// 0.5 clamp, the product with scale — is monotone. The 1e-9 slack is seven
// orders above the few roundings (math.Log's and the hoisted products'
// included) that could otherwise leave the bound an ulp short.
func (d *Device) flipBound(rate, scale float64, cellHash uint64, bitlineTerm, wordlineTerm float64) float64 {
	m := d.cellWeight*expFactorBound[bits.Len64(^cellHash>>11)] + bitlineTerm + wordlineTerm
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
