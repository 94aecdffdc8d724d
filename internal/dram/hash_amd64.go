package dram

import "repro/internal/cpufeat"

// belowMasksAVX2 is belowMasks for starts[0:n] on four 64-bit lanes; its
// signed compare (VPCMPGTQ) needs thr ≤ 2^53.
//
//go:noescape
func belowMasksAVX2(key uint64, starts *uint64, n int, thr uint64, dst *uint8)

// belowMasks sets dst[k] for k < len(starts) as belowMasksScalar does, bit
// for bit.
func belowMasks(key uint64, starts []uint64, thr uint64, dst []uint8) {
	if n := len(starts); cpufeat.Vec.HasAVX2 && n > 0 {
		belowMasksAVX2(key, &starts[0], n, min(thr, 1<<53), &dst[:n][0])
		return
	}
	belowMasksScalar(key, starts, thr, dst)
}
