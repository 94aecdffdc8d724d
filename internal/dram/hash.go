package dram

// Every random choice the device makes is one hash3 of the seed, a domain
// word and an index. belowMasksScalar specifies the read's kernel; the
// amd64 assembly is integer-only, so it matches bit for bit by construction.

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

// unhash3 returns the c for which hash3(a, b, c) == h: the finalizer is a
// bijection, and its odd multipliers have the inverses modulo 2^64 below.
func unhash3(a, b, h uint64) uint64 {
	unshift := func(z uint64, s uint) uint64 { return z ^ z>>s ^ z>>(2*s) } // inverts z ^= z >> s for s ≥ 22
	z := unshift(h, 31) * 0x319642b2d24d8ec3
	z = unshift(z, 27) * 0x96de1b173f119089
	return (unshift(z, 30) ^ hashKey(a, b)) * 0x96de1b173f119089
}

// infCells lists the 2^11 cells, under seed, whose weakness hash is all ones
// above its low 11 bits: those whose expFactor is +Inf (expFactorBound).
func infCells(seed uint64) (cells [1 << 11]uint64) {
	for low := range cells {
		cells[low] = unhash3(seed, 0xCE11, ^uint64(1<<11-1)|uint64(low))
	}
	return cells
}

// belowMasksScalar sets bit j of dst[k] exactly when hashWith(key,
// starts[k]+j)>>11 < thr. A 53-bit draw is below thr exactly when below
// min(thr, 2^53), and then their difference wraps into its top bit.
func belowMasksScalar(key uint64, starts []uint64, thr uint64, dst []uint8) {
	thr = min(thr, 1<<53)
	for k, s := range starts {
		var m uint8
		for j := range uint64(8) {
			m |= uint8((hashWith(key, s+j)>>11-thr)>>63) << j
		}
		dst[k] = m
	}
}
