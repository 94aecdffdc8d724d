package dram

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"repro/internal/cpufeat"
)

// forEachVecPath runs f as a subtest on the vector kernel and again on the
// scalar body, so hosts with the assembly keep exercising the fallback
// every other architecture runs.
func forEachVecPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"vec", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "vec" && !cpufeat.X86.HasAVX2 {
				t.Skip("no vector kernel on this build or CPU")
			}
			t.Cleanup(cpufeat.SetVec(path == "vec"))
			f(t)
		})
	}
}

// masksByDefinition is belowMasks spelled out one hash and one comparison
// at a time.
func masksByDefinition(key uint64, starts []uint64, thr uint64) []uint8 {
	dst := make([]uint8, len(starts))
	for k, s := range starts {
		for j := uint64(0); j < 8; j++ {
			if hashWith(key, s+j)>>11 < thr {
				dst[k] |= 1 << j
			}
		}
	}
	return dst
}

// FuzzBelowMasksVecMatchesScalar lets the fuzzer pick the key, the
// threshold and up to 256 starts (eight bytes each); on every prefix of the
// starts, belowMasks (the vector kernel, where there is one), the scalar
// body and the definition must agree, and belowMasks must write nothing
// past the prefix. The seeds put the threshold where a compare could go
// wrong — 0, 1, a draw's exact value and its successor, 2^53 and beyond —
// over starts whose eight cells wrap around 2^64 among others.
func FuzzBelowMasksVecMatchesScalar(f *testing.F) {
	const key = 0x0123456789abcdef
	starts := []uint64{12345, 0, math.MaxUint64 - 3}
	for k := uint64(0); k < 34; k++ {
		starts = append(starts, hash3(9, 9, k))
	}
	var raw []byte
	for _, s := range starts {
		raw = binary.LittleEndian.AppendUint64(raw, s)
	}
	draw := hashWith(key, starts[5]+2) >> 11
	for _, thr := range []uint64{0, 1, draw, draw + 1, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1 << 63, math.MaxUint64} {
		f.Add(uint64(key), thr, raw)
	}
	for _, thr := range []uint64{0, 1, 1 << 53} {
		f.Add(uint64(7), thr, []byte{})
		f.Add(uint64(7), thr, raw[:8])
	}
	f.Fuzz(func(t *testing.T, key, thr uint64, raw []byte) {
		t.Cleanup(cpufeat.SetVec(true))
		starts := make([]uint64, min(len(raw)/8, 256)) // every prefix is checked
		for k := range starts {
			starts[k] = binary.LittleEndian.Uint64(raw[8*k:])
		}
		want := masksByDefinition(key, starts, thr)
		got, spec := make([]uint8, len(starts)+1), make([]uint8, len(starts))
		for n := 0; n <= len(starts); n++ {
			got[n] = 0xA5
			belowMasks(key, starts[:n], thr, got)
			belowMasksScalar(key, starts[:n], thr, spec)
			for k := range starts[:n] {
				if got[k] != want[k] || spec[k] != want[k] {
					t.Fatalf("key %#x thr %#x start %#x: belowMasks %08b, scalar body %08b, definition %08b",
						key, thr, starts[k], got[k], spec[k], want[k])
				}
			}
			if got[n] != 0xA5 {
				t.Fatalf("belowMasks of %d starts wrote past them", n)
			}
		}
	})
}

// TestInfCellsHashToAllOnes checks that every cell infCells lists — the
// cells NewDevice searches its module for — has the all-ones weakness draw
// and the +Inf factor, that the list has no repeats (hash3 is a bijection
// in its last word), and that the test module holds none of them, so the
// reference tests read under the row bound.
func TestInfCellsHashToAllOnes(t *testing.T) {
	for _, seed := range []uint64{0, 5, 77, 0xEDE4, math.MaxUint64} {
		seen := map[uint64]bool{}
		for _, cell := range infCells(seed) {
			h := hash3(seed, 0xCE11, cell)
			if h>>11 != 1<<53-1 || bits.Len64(^h>>11) != 0 || !math.IsInf(expFactor(h), 1) {
				t.Fatalf("seed %#x: cell %#x hashes to %#x, factor %v", seed, cell, h, expFactor(h))
			}
			if seen[cell] {
				t.Fatalf("seed %#x: cell %#x listed twice", seed, cell)
			}
			seen[cell] = true
		}
	}
	for _, vendor := range Vendors() {
		if NewDevice(testGeom(), vendor, 77).infCell {
			t.Fatalf("vendor %s: the test module holds a +Inf cell", vendor.Name)
		}
	}
}
