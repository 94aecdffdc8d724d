package compute

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

var (
	negZero = float32(math.Copysign(0, -1))
	posInf  = float32(math.Inf(1))
	nan     = float32(math.NaN())
	// nanPayload is a NaN with other bits than the canonical one: the
	// kernels must never let any NaN through, whatever it carries.
	nanPayload = math.Float32frombits(0xFFC12345)
)

// elemSpecials are the values the two specifications are probed with:
// everything axpy's specials hold plus the non-finite values and the ReLU6
// ceiling with its two float32 neighbours.
var elemSpecials = append([]float32{
	nan, nanPayload, posInf, negInf, 6,
	math.Float32frombits(math.Float32bits(6) - 1), math.Float32frombits(math.Float32bits(6) + 1),
}, specials...)

// clampReference is dnn.ReLU's forward loop as it stood before Clamp
// existed, kept verbatim so the specification cannot drift from it.
func clampReference(dst, src []float32, ceil float32) {
	for i, v := range src {
		dst[i] = v
		pass := v > 0 && (ceil == 0 || v < ceil)
		if !pass {
			if v <= 0 {
				dst[i] = 0
			} else {
				dst[i] = ceil
			}
		}
	}
}

// poolReference is tensor.MaxPool2DInto's window walk on one 2×2/stride-2
// output row.
func poolReference(dst, row0, row1 []float32) {
	for j := range dst {
		best := float32(math.Inf(-1))
		for _, row := range [][]float32{row0, row1} {
			for kx := 0; kx < 2; kx++ {
				if v := row[2*j+kx]; v > best {
					best = v
				}
			}
		}
		dst[j] = best
	}
}

// TestClampMatchesSpec holds Clamp, on both paths, to the loop ReLU used to
// run: ceilings 0 and 6, every length around the 8-lane step, special
// values in every position, destination separate from and aliasing the
// source, canaries around the destination.
func TestClampMatchesSpec(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		r := tensor.NewRNG(0xC1A3)
		for _, ceil := range []float32{0, 6} {
			for n := 0; n <= 33; n++ {
				for rep := 0; rep < 8; rep++ {
					src := make([]float32, n)
					for i := range src {
						src[i] = elemSpecials[r.Intn(len(elemSpecials))]
					}
					want := make([]float32, n)
					clampReference(want, src, ceil)
					desc := fmt.Sprintf("ceil=%v n=%d rep=%d", ceil, n, rep)

					back, dst := guardedRow(r, n, rep)
					wantBack := append([]float32(nil), back...)
					copy(wantBack[rep+guardLen:], want)
					Clamp(dst, src, ceil)
					assertSameBits(t, desc+" (canaries included)", back, wantBack)

					spec := make([]float32, n)
					clampScalar(spec, src, ceil)
					assertSameBits(t, desc+" scalar body", spec, want)

					Clamp(src, src, ceil)
					assertSameBits(t, desc+" in place", src, want)
				}
			}
		}
	})
}

// TestClampUnusualCeilings covers the ceilings no layer has — negative, −0,
// NaN, +Inf — which must still give the specification's answers (the vector
// bodies are not built for the first three; Clamp routes them to the scalar
// body).
func TestClampUnusualCeilings(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		src := make([]float32, 0, 2*len(elemSpecials))
		src = append(src, elemSpecials...)
		src = append(src, elemSpecials...)
		for _, ceil := range []float32{-1, negZero, nan, posInf, math.SmallestNonzeroFloat32} {
			got, want := make([]float32, len(src)), make([]float32, len(src))
			Clamp(got, src, ceil)
			clampReference(want, src, ceil)
			assertSameBits(t, fmt.Sprintf("ceil=%v", ceil), got, want)
		}
	})
}

// TestMaxPool2x2MatchesSpec holds MaxPool2x2, on both paths, to the generic
// window walk at every output length around the 8-lane step, with special
// values (NaNs included) in every tap.
func TestMaxPool2x2MatchesSpec(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		r := tensor.NewRNG(0xB001)
		for n := 0; n <= 33; n++ {
			for rep := 0; rep < 16; rep++ {
				// An odd row length leaves one element the kernel must
				// not need.
				row0, row1 := make([]float32, 2*n+rep%2), make([]float32, 2*n+rep%2)
				for i := range row0 {
					row0[i] = elemSpecials[r.Intn(len(elemSpecials))]
					row1[i] = elemSpecials[r.Intn(len(elemSpecials))]
				}
				want := make([]float32, n)
				poolReference(want, row0, row1)
				desc := fmt.Sprintf("n=%d rep=%d", n, rep)

				back, dst := guardedRow(r, n, rep%8)
				wantBack := append([]float32(nil), back...)
				copy(wantBack[rep%8+guardLen:], want)
				MaxPool2x2(dst, row0, row1)
				assertSameBits(t, desc+" (canaries included)", back, wantBack)

				spec := make([]float32, n)
				maxPool2x2Scalar(spec, row0, row1)
				assertSameBits(t, desc+" scalar body", spec, want)
			}
		}
	})
}

// TestMaxPool2x2WindowTable enumerates whole windows over the values whose
// handling the specification spells out — both zeros, NaN, −Inf and an
// ordinary pair — in every one of the 8 lanes: 6⁴ windows, among them the
// all-NaN window (−Inf), every placement of +0 and −0 as equal maxima
// (the first in tap order wins) and NaN beside each.
func TestMaxPool2x2WindowTable(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		vals := []float32{0, negZero, nan, negInf, -1, 1}
		const lanes = 8
		k := len(vals)
		for w := 0; w < k*k*k*k; w++ {
			tap := [4]float32{vals[w%k], vals[w/k%k], vals[w/k/k%k], vals[w/k/k/k]}
			best := negInf
			for _, v := range tap {
				if v > best {
					best = v
				}
			}
			for lane := 0; lane < lanes; lane++ {
				row0, row1 := make([]float32, 2*lanes), make([]float32, 2*lanes)
				want := make([]float32, lanes)
				for j := range want {
					// The other lanes hold a window whose answer is 2.
					row0[2*j], row0[2*j+1], row1[2*j], row1[2*j+1] = nan, 2, -3, negZero
					want[j] = 2
				}
				row0[2*lane], row0[2*lane+1], row1[2*lane], row1[2*lane+1] = tap[0], tap[1], tap[2], tap[3]
				want[lane] = best
				got := make([]float32, lanes)
				MaxPool2x2(got, row0, row1)
				assertSameBits(t, fmt.Sprintf("window %v in lane %d", tap, lane), got, want)
			}
		}
		all, got := make([]float32, 2*lanes), make([]float32, lanes)
		for i := range all {
			all[i] = nan
		}
		MaxPool2x2(got, all, all)
		for j, v := range got {
			if v != negInf {
				t.Fatalf("all-NaN window %d pools to %v, want -Inf", j, v)
			}
		}
	})
}

// FuzzClampVecMatchesScalar lets the fuzzer pick the bit patterns: each run
// clamps a row built around the fuzzed value and ceiling and pools two such
// rows, on the vector path, against the scalar bodies.
func FuzzClampVecMatchesScalar(f *testing.F) {
	f.Add(uint64(1), math.Float32bits(0.5), math.Float32bits(6))
	f.Add(uint64(2), math.Float32bits(6), math.Float32bits(6))
	f.Add(uint64(3), uint32(0x7FC00000), uint32(0))
	f.Add(uint64(4), uint32(0x80000000), uint32(0))
	f.Add(uint64(5), math.Float32bits(-1e-40), uint32(0x80000000))
	f.Add(uint64(6), math.Float32bits(7), math.Float32bits(-2))
	f.Fuzz(func(t *testing.T, seed uint64, vbits, cbits uint32) {
		pinVecPath(t, true)
		r := tensor.NewRNG(seed)
		n := 8 + r.Intn(40)
		row := func() []float32 {
			s := make([]float32, 2*n)
			for i := range s {
				switch r.Intn(4) {
				case 0: // the fuzzer's value and its neighbourhood
					s[i] = math.Float32frombits(vbits + uint32(r.Intn(5)) - 2)
				case 1: // the same magnitude with the other sign
					s[i] = math.Float32frombits(vbits ^ 0x80000000)
				case 2:
					s[i] = elemSpecials[r.Intn(len(elemSpecials))]
				default:
					s[i] = math.Float32frombits(uint32(r.Uint64()))
				}
			}
			return s
		}
		row0, row1 := row(), row()
		ceil := math.Float32frombits(cbits)
		if r.Intn(2) == 0 {
			ceil = []float32{0, 6}[r.Intn(2)]
		}
		got, want := make([]float32, 2*n), make([]float32, 2*n)
		Clamp(got, row0, ceil)
		clampScalar(want, row0, ceil)
		assertSameBits(t, fmt.Sprintf("Clamp ceil=%v (%#08x)", ceil, math.Float32bits(ceil)), got, want)

		got, want = got[:n], want[:n]
		MaxPool2x2(got, row0, row1)
		maxPool2x2Scalar(want, row0, row1)
		assertSameBits(t, "MaxPool2x2", got, want)
	})
}

func TestElemwiseDoesNotAllocate(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		const n = 61
		buf := make([]float32, 5*n)
		dst, src := buf[:n], buf[n:2*n]
		if avg := testing.AllocsPerRun(100, func() { Clamp(dst, src, 6) }); avg != 0 {
			t.Errorf("Clamp allocates %v times per call", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { MaxPool2x2(dst, buf[n:3*n], buf[3*n:]) }); avg != 0 {
			t.Errorf("MaxPool2x2 allocates %v times per call", avg)
		}
	})
}

// The two benchmarks run the primitives over one VGG-16 batch of 16 at the
// shapes where the elementwise time is: relu1_1, relu1_2 and pool1 see
// 16×16×16×16 values (rows of eight outputs, one vector step each), pool2
// reads 16×32×8×8 (rows of four, below the vector width). Bytes are those
// read plus those written.

func BenchmarkClamp(b *testing.B) {
	const n = 16 * 16 * 16 * 16
	for _, vec := range []bool{true, false} {
		b.Run(fmt.Sprintf("vec=%v", vec), func(b *testing.B) {
			pinVecPath(b, vec)
			src, dst := benchRow(n), make([]float32, n)
			b.SetBytes(2 * 4 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Clamp(dst, src, 0)
			}
		})
	}
}

func BenchmarkMaxPool2x2(b *testing.B) {
	for _, shape := range []struct{ planes, h, w int }{{16 * 16, 16, 16}, {16 * 32, 8, 8}} {
		planes, h, w := shape.planes, shape.h, shape.w
		for _, vec := range []bool{true, false} {
			b.Run(fmt.Sprintf("%dx%dx%d/vec=%v", planes, h, w, vec), func(b *testing.B) {
				pinVecPath(b, vec)
				src, dst := benchRow(planes*h*w), make([]float32, planes*h*w/4)
				b.SetBytes(int64(4 * (len(src) + len(dst))))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for r := 0; r < planes*h/2; r++ {
						MaxPool2x2(dst[r*w/2:(r+1)*w/2], src[2*r*w:(2*r+1)*w], src[(2*r+1)*w:(2*r+2)*w])
					}
				}
			})
		}
	}
}

// benchRow is n values, half of them negative, in no order a branch
// predictor could learn.
func benchRow(n int) []float32 {
	s := make([]float32, n)
	tensor.FromSlice(s, n).FillUniform(tensor.NewRNG(0xBE), -1, 1)
	return s
}
