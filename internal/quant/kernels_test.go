package quant

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// pinVecPath makes the primitives run their vector (or scalar) implementation
// for the rest of t, skipping t where there is no vector implementation.
func pinVecPath(t testing.TB, vec bool) {
	t.Helper()
	if vec && !cpufeat.X86.HasAVX2 {
		t.Skip("no vector kernels on this build or CPU")
	}
	t.Cleanup(cpufeat.SetVec(vec))
}

// forEachVecPath runs f as a subtest on the vector primitives and again on
// their scalar bodies, so hosts with the assembly keep exercising the
// fallback every other architecture runs.
func forEachVecPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"vec", "scalar"} {
		t.Run(path, func(t *testing.T) {
			pinVecPath(t, path == "vec")
			f(t)
		})
	}
}

func ulpUp(v float32) float32   { return math.Nextafter32(v, float32(math.Inf(1))) }
func ulpDown(v float32) float32 { return math.Nextafter32(v, float32(math.Inf(-1))) }

// quotients are the values the codecs are probed with, used directly as
// inputs at scale 1 and multiplied out at the other scales: both zeros,
// denormals, every half-integer tie up to beyond the int8 range with its
// two neighbours (the cases a round-to-even or a reciprocal multiply gets
// wrong), the edges of the int16 range, the int32 conversion boundary, the
// float extremes and the non-finite values.
var quotients = func() []float32 {
	negZero := float32(math.Copysign(0, -1))
	q := []float32{
		0, negZero,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		0.3, -2.75, 1, -1, 7, -8, 127, -128, 1234.56, -1e-3,
		32766.5, 32767, 32767.5, 32768, -32767.5, -32768, -32768.5, -32769,
		1 << 23, -(1 << 23), 1<<23 + 1, 1<<24 + 2,
		1<<31 - 128, 1 << 31, 1<<31 + 256, -(1 << 31), -(1<<31 + 256), 3e9, -3e9, 3e19,
		math.MaxFloat32, -math.MaxFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(0xFFC00001), // a negative NaN with a payload
	}
	for k := -130; k <= 130; k++ {
		h := float32(k) + 0.5
		q = append(q, h, ulpUp(h), ulpDown(h))
	}
	return q
}()

const (
	guardLen   = 16 // canary elements on each side of a row, two YMM widths
	canaryCode = uint32(0xDEADBEEF)
)

var canaryValue = math.Float32frombits(0xC640E6B7) // -12345.678

// guarded returns a slice of n elements of fill, starting `offset` elements
// past the (allocator-aligned) start of its backing array and flanked by
// canaries, with its capacity cut so an over-long write panics or lands on
// a canary.
func guarded[T comparable](n, offset int, canary T, fill func(i int) T) (backing, row []T) {
	backing = make([]T, offset+guardLen+n+guardLen)
	for i := range backing {
		backing[i] = canary
	}
	row = backing[offset+guardLen : offset+guardLen+n : offset+guardLen+n]
	for i := range row {
		row[i] = fill(i)
	}
	return backing, row
}

func assertCanaries[T comparable](t *testing.T, desc string, backing []T, n, offset int, canary T) {
	t.Helper()
	for i, v := range backing {
		if inRow := i >= offset+guardLen && i < offset+guardLen+n; !inRow && v != canary {
			t.Fatalf("%s: wrote outside the row at backing[%d] (row is [%d,%d))", desc, i, offset+guardLen, offset+guardLen+n)
		}
	}
}

// forEachLayout visits every row length 0..67 at every start offset 0..7:
// all tail lengths on both sides of the 8- and 32-element steps, at every
// alignment of the first element within a YMM-sized block.
func forEachLayout(f func(n, offset int)) {
	for n := 0; n <= 67; n++ {
		for offset := 0; offset < 8; offset++ {
			f(n, offset)
		}
	}
}

// The three tests below are the contract: on every layout and every probe
// value, the vector wrapper returns the scalar specification's bits.

func TestMaxAbsVecMatchesScalar(t *testing.T) {
	pinVecPath(t, true)
	r := tensor.NewRNG(0xAB5)
	forEachLayout(func(n, offset int) {
		for trial := 0; trial < 4; trial++ {
			// NaN flanks keep this pass about the values (NaNs included, at
			// random lanes); the pass below is the one that sees over-reads.
			_, x := guarded(n, offset, float32(math.NaN()), func(int) float32 {
				return quotients[r.Intn(len(quotients))]
			})
			got, want := maxAbs(x), maxAbsScalar(x)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d offset=%d: maxAbs = %v (%#08x), scalar body gives %v (%#08x)",
					n, offset, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	})
	// An over-read must show: finite canaries larger than every element.
	forEachLayout(func(n, offset int) {
		_, x := guarded(n, offset, float32(1e30), func(i int) float32 { return float32(i%5) - 2 })
		if got, want := maxAbs(x), maxAbsScalar(x); got != want {
			t.Fatalf("n=%d offset=%d: maxAbs = %v, scalar body gives %v (read past the row?)", n, offset, got, want)
		}
	})
}

// quantizeCases are the (scale, range) settings the encoder is probed at:
// the three integer precisions, scales that make the probe values land on
// ties after the divide, and the degenerate scales the wrapper routes to
// the scalar body.
var quantizeCases = func() (cs []struct {
	scale float32
	bits  int
}) {
	for _, b := range []int{4, 8, 16} {
		for _, s := range []float32{1, 0.5, 3, 1.0 / 127, 0.1, 1e-3, 7.3e5, 1e-38, 1e-45, 1e38,
			0, float32(math.Inf(1)), float32(math.NaN()), -1} {
			cs = append(cs, struct {
				scale float32
				bits  int
			}{s, b})
		}
	}
	return cs
}()

func TestQuantizeVecMatchesScalar(t *testing.T) {
	pinVecPath(t, true)
	r := tensor.NewRNG(0x0DE)
	for _, c := range quantizeCases {
		lo, hi, mask := codeRange(c.bits)
		forEachLayout(func(n, offset int) {
			srcBacking, src := guarded(n, offset, canaryValue, func(int) float32 {
				if r.Intn(4) == 0 {
					return r.Float32()*300 - 150
				}
				return quotients[r.Intn(len(quotients))] * c.scale
			})
			gotBacking, got := guarded(n, offset, canaryCode, func(int) uint32 { return canaryCode })
			want := make([]uint32, n)
			quantizeCodes(got, src, c.scale, lo, hi, mask)
			quantizeScalar(want, src, c.scale, lo, hi, mask)
			desc := fmt.Sprintf("int%d scale=%v n=%d offset=%d", c.bits, c.scale, n, offset)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: code %d of %v (%#08x) is %#x, scalar body gives %#x",
						desc, i, src[i], math.Float32bits(src[i]), got[i], want[i])
				}
			}
			assertCanaries(t, desc, gotBacking, n, offset, canaryCode)
			assertCanaries(t, desc+" (src)", srcBacking, n, offset, canaryValue)
		})
	}
}

func TestDequantizeVecMatchesScalar(t *testing.T) {
	pinVecPath(t, true)
	r := tensor.NewRNG(0xDE0)
	for _, b := range []int{4, 8, 16} {
		for _, scale := range []float32{1, 1.0 / 127, 0.3, 1e-38, 1e-45, 1e35, 0,
			float32(math.Inf(1)), float32(math.NaN()), -2.5} {
			forEachLayout(func(n, offset int) {
				// Codes carry garbage above their low b bits: only those
				// bits are meaningful, and a flipped image never sets more.
				_, codes := guarded(n, offset, canaryCode, func(int) uint32 { return uint32(r.Uint64()) })
				gotBacking, got := guarded(n, offset, canaryValue, func(int) float32 { return canaryValue })
				want := make([]float32, n)
				dequantizeCodes(got, codes, scale, b)
				dequantizeScalar(want, codes, scale, b)
				desc := fmt.Sprintf("int%d scale=%v n=%d offset=%d", b, scale, n, offset)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s: value %d of code %#x is %v (%#08x), scalar body gives %v (%#08x)",
							desc, i, codes[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
				assertCanaries(t, desc, gotBacking, n, offset, canaryValue)
			})
		}
	}
}

// FuzzQuantizeVecMatchesScalar lets the fuzzer pick raw float bit patterns,
// the scale and the precision; the vector encoder must agree with the
// scalar specification on all of them, and the decoder on what comes out.
func FuzzQuantizeVecMatchesScalar(f *testing.F) {
	f.Add(uint64(1), math.Float32bits(0.5), math.Float32bits(1), uint8(1))
	f.Add(uint64(2), math.Float32bits(-126.5), math.Float32bits(1.0/127), uint8(0))
	f.Add(uint64(3), uint32(0x7FC00000), uint32(0), uint8(2))
	f.Add(uint64(4), math.Float32bits(math.MaxFloat32), math.Float32bits(1e-45), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, vbits, sbits uint32, precRaw uint8) {
		pinVecPath(t, true)
		b := []int{4, 8, 16}[int(precRaw)%3]
		lo, hi, mask := codeRange(b)
		scale := math.Float32frombits(sbits)
		r := tensor.NewRNG(seed)
		n := 8 + r.Intn(40)
		src := make([]float32, n)
		for i := range src {
			switch r.Intn(3) {
			case 0: // the fuzzer's value and its neighbourhood
				src[i] = math.Float32frombits(vbits + uint32(r.Intn(5)) - 2)
			case 1: // a tie under this scale, give or take an ulp
				src[i] = math.Float32frombits(math.Float32bits((float32(r.Intn(261)-130)+0.5)*scale) + uint32(r.Intn(3)) - 1)
			default:
				src[i] = math.Float32frombits(uint32(r.Uint64()))
			}
		}
		got, want := make([]uint32, n), make([]uint32, n)
		quantizeCodes(got, src, scale, lo, hi, mask)
		quantizeScalar(want, src, scale, lo, hi, mask)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("int%d scale=%v (%#08x): code of %v (%#08x) is %#x, scalar body gives %#x",
					b, scale, sbits, src[i], math.Float32bits(src[i]), got[i], want[i])
			}
		}
		if g, w := maxAbs(src), maxAbsScalar(src); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("maxAbs = %v, scalar body gives %v", g, w)
		}
		gotF, wantF := make([]float32, n), make([]float32, n)
		dequantizeCodes(gotF, got, scale, b)
		dequantizeScalar(wantF, got, scale, b)
		for i := range wantF {
			if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
				t.Fatalf("int%d scale=%v: code %#x decodes to %v, scalar body gives %v", b, scale, got[i], gotF[i], wantF[i])
			}
		}
	})
}

// TestEncodeMatchesFloat64Round pins the float64-free rounding to the
// definition it replaced — math.Round of the float32 quotient — wherever
// that definition is portable, and to amd64's answer (the lowest code)
// where the quotient has no int32 value.
func TestEncodeMatchesFloat64Round(t *testing.T) {
	for _, b := range []int{4, 8, 16} {
		lo, hi, _ := codeRange(b)
		for _, scale := range []float32{1, 0.5, 1.0 / 127, 0.1, 3} {
			for _, q := range quotients {
				v := q * scale
				quot := v / scale
				want := lo // NaN, or at/above 2^31
				if quot < intIndefinite {
					want = int32(max(float64(lo), min(float64(hi), math.Round(float64(quot)))))
				}
				if got := encode(v, scale, lo, hi); got != want {
					t.Fatalf("int%d: encode(%v, scale %v) = %d, want %d (quotient %v)", b, v, scale, got, want, quot)
				}
			}
		}
	}
}

// TestQuantizeDegenerateTensors is the determinism fix's table: tensors
// whose quotients no float→int conversion is portable on must encode to
// the same codes on both paths and on every host — NaN and +Inf to the
// lowest code, as amd64 always answered.
func TestQuantizeDegenerateTensors(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	denormal := float32(math.SmallestNonzeroFloat32)
	pad := func(head ...float32) *tensor.Tensor { // long enough for the vector body
		return tensor.FromSlice(append(head, make([]float32, 29)...), 29+len(head))
	}
	cases := []struct {
		name      string
		t         *tensor.Tensor
		wantScale float32
		wantCodes []uint32 // of the leading elements
	}{
		{"NaN among finite values", pad(nan, 1, -1, 0.25), 1.0 / 127, []uint32{0x80, 127, 0x81, 32}},
		{"only NaN", pad(nan, nan), 1, []uint32{0x80, 0x80, 0}},
		{"+Inf", pad(inf, 1, -1), inf, []uint32{0x80, 0, 0}},
		{"-Inf", pad(-inf, 1, nan), inf, []uint32{0x80, 0, 0x80}},
		{"all zero", pad(0, float32(math.Copysign(0, -1))), 1, []uint32{0, 0, 0}},
		// max-abs/127 underflows to a zero scale: v/0 is ±Inf, 0/0 is NaN.
		{"denormal max-abs", pad(denormal, -denormal, 0), 0, []uint32{0x80, 0x80, 0x80}},
		{"larger denormal max-abs", pad(200*denormal, -100*denormal, denormal), 2 * denormal, []uint32{100, 0xCE, 1}},
	}
	forEachVecPath(t, func(t *testing.T) {
		for _, c := range cases {
			q := Quantize(c.t, Int8)
			if math.Float32bits(q.Scale) != math.Float32bits(c.wantScale) {
				t.Errorf("%s: scale %v, want %v", c.name, q.Scale, c.wantScale)
			}
			for i, want := range c.wantCodes {
				if q.Codes[i] != want {
					t.Errorf("%s: code %d (of %v) = %#x, want %#x", c.name, i, c.t.Data[i], q.Codes[i], want)
				}
			}
		}
		q := &QTensor{Prec: Int8, Scale: 0.5, Codes: make([]uint32, 1)}
		for _, c := range []struct {
			v    float32
			want uint32
		}{{nan, 0x80}, {inf, 0x80}, {-inf, 0x80}, {1e30, 0x80}, {-1e30, 0x80}, {63.4, 127}, {0.25, 1}, {-0.25, 0xFF}} {
			if q.SetValue(0, c.v); q.Codes[0] != c.want {
				t.Errorf("SetValue(%v) stores %#x, want %#x", c.v, q.Codes[0], c.want)
			}
		}
	})
}

// TestQuantizeIntoReusesImage: a reused image allocates nothing once it has
// grown to the largest tensor, and holds exactly what Quantize returns.
func TestQuantizeIntoReusesImage(t *testing.T) {
	r := tensor.NewRNG(0x1270)
	big, small := tensor.New(2, 3, 40), tensor.New(5, 7)
	big.FillUniform(r, -3, 3)
	small.FillUniform(r, -1, 1)
	forEachVecPath(t, func(t *testing.T) {
		var img QTensor
		dst := make([]float32, big.Size())
		for _, p := range Precisions {
			for _, src := range []*tensor.Tensor{big, small, big} {
				QuantizeInto(&img, src, p)
				want := Quantize(src, p)
				if img.Prec != want.Prec || img.Scale != want.Scale || !img.Shape.Equal(want.Shape) || len(img.Codes) != len(want.Codes) {
					t.Fatalf("%v: reused image header %v/%v/%v, want %v/%v/%v", p, img.Prec, img.Scale, img.Shape, want.Prec, want.Scale, want.Shape)
				}
				for i := range want.Codes {
					if img.Codes[i] != want.Codes[i] {
						t.Fatalf("%v: reused image code %d = %#x, want %#x", p, i, img.Codes[i], want.Codes[i])
					}
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				QuantizeInto(&img, small, p)
				img.DequantizeInto(dst[:small.Size()])
				QuantizeInto(&img, big, p)
				img.DequantizeInto(dst)
			}); allocs != 0 {
				t.Errorf("%v: warmed QuantizeInto + DequantizeInto allocate %v times per run", p, allocs)
			}
		}
	})
}

var benchSink float32

// BenchmarkCodecs reports Mval/s for the three primitives on both paths,
// over the 64k-value tensor cmd/bench's quant.* probes use.
func BenchmarkCodecs(b *testing.B) {
	src := tensor.New(1 << 16)
	src.FillUniform(tensor.NewRNG(0xC0DE), -1, 1)
	lo, hi, mask := codeRange(8)
	codes := make([]uint32, src.Size())
	dst := make([]float32, src.Size())
	for _, path := range []struct {
		name string
		vec  bool
	}{{"vec", true}, {"scalar", false}} {
		run := func(name string, f func()) {
			b.Run(name+"/"+path.name, func(b *testing.B) {
				pinVecPath(b, path.vec)
				for i := 0; i < b.N; i++ {
					f()
				}
				b.ReportMetric(float64(src.Size())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mval/s")
			})
		}
		run("maxabs", func() { benchSink = maxAbs(src.Data) })
		run("quantize", func() { quantizeCodes(codes, src.Data, 1.0/127, lo, hi, mask) })
		run("dequantize", func() { dequantizeCodes(dst, codes, 1.0/127, 8) })
	}
}
