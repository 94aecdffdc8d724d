package compute

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// pinVecPath makes the primitives run their vector (or scalar) implementation
// for the rest of t, skipping t where there is no vector implementation.
func pinVecPath(t testing.TB, vec bool) {
	t.Helper()
	if vec && !hasVec {
		t.Skip("no vector kernels on this build or CPU")
	}
	prev := useVec
	useVec = vec
	t.Cleanup(func() { useVec = prev })
}

// forEachVecPath runs f as a subtest on the vector primitives and again on
// their scalar bodies, so hosts with the assembly keep exercising the
// fallback every other architecture runs.
func forEachVecPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, path := range []struct {
		name string
		vec  bool
	}{{"vec", true}, {"scalar", false}} {
		t.Run(path.name, func(t *testing.T) {
			pinVecPath(t, path.vec)
			f(t)
		})
	}
}

// specials are the values the kernel spec is probed with: both zeros,
// denormals, ordinary magnitudes, and the extremes whose products overflow
// to ±Inf. All finite, so no single step can produce a NaN.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	1, -1, 0.3, -2.75, 1234.5, -1e-3, 3e19, -7e18,
	math.MaxFloat32, -math.MaxFloat32,
}

const (
	guardLen    = 16 // canary elements on each side of a row, two YMM widths
	canaryValue = float32(-12345.678)
)

// guardedRow returns a row of n elements drawn from specials, starting
// `offset` elements past the (allocator-aligned) start of its backing
// array and flanked by canaries. The canaries are ordinary finite values
// on purpose: a lane processed past either end of a destination row
// rewrites its canary to canary + a·x, and x's own canaries are non-zero
// so that rewrite cannot be a no-op.
func guardedRow(r *tensor.RNG, n, offset int) (backing, row []float32) {
	backing = make([]float32, offset+guardLen+n+guardLen)
	for i := range backing {
		backing[i] = canaryValue
	}
	row = backing[offset+guardLen : offset+guardLen+n : offset+guardLen+n]
	for i := range row {
		row[i] = specials[r.Intn(len(specials))]
	}
	return backing, row
}

func assertSameBits(t *testing.T, desc string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#08x), scalar body gives %v (%#08x)",
				desc, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestAxpyVectorMatchesScalarSpec holds the assembly to the scalar body
// bit for bit: every length around the 8-lane step (0…67), every start
// misalignment (0…7 elements), special values in every operand, and
// canaries that fail the test if a single lane beyond a row is touched.
func TestAxpyVectorMatchesScalarSpec(t *testing.T) {
	pinVecPath(t, true)
	r := tensor.NewRNG(0xA4B1)
	for n := 0; n <= 67; n++ {
		for offset := 0; offset < 8; offset++ {
			// d is what the wrapper under test updates inside dBack; want is
			// a copy of dBack whose same window the scalar body updates.
			dBack, d := guardedRow(r, n, offset)
			xBack, x := guardedRow(r, n, offset)
			want := append([]float32(nil), dBack...)
			xWant := append([]float32(nil), xBack...)
			a := specials[r.Intn(len(specials))]
			axpyScalar(want[offset+guardLen:offset+guardLen+n], x, a)
			axpy(d, x, a)
			desc := fmt.Sprintf("axpy n=%d offset=%d", n, offset)
			assertSameBits(t, desc+" d (canaries included)", dBack, want)
			assertSameBits(t, desc+" x (canaries included)", xBack, xWant)
		}
	}
}

// tileNaive restates the tile contract one output element at a time.
func tileNaive(acc *[tileRows * tileCols]float32, init *[tileRows]float32, w, src []float32, offs []int32, hiDelta, k int) {
	for f := 0; f < tileRows; f++ {
		for j := 0; j < tileCols; j++ {
			at := j
			if j >= vecLanes {
				at += hiDelta - vecLanes
			}
			sum := init[f]
			for p := 0; p < k; p++ {
				sum += w[f*k+p] * src[int(offs[p])+at]
			}
			acc[f*tileCols+j] = sum
		}
	}
}

// tileCase is one call of the tile: its operands, the destination tile
// inside guardLen canaries on either side, and a want copy of it that the
// reference fills.
type tileCase struct {
	init              [tileRows]float32
	dst, want, w, src []float32
	offs              []int32
	hiDelta, k        int
}

// tileSteps are the tables the tile tests draw: offs[p+1]−offs[p] cycles
// through one of them. A convolution's rows overlap — the next tap is one
// element on, the next kernel row a plane row on — and a staged panel's
// are a strip or more apart.
var tileSteps = [][]int{{1}, {1, 1, 8}, {tileCols}, {64}}

// tileHiDeltas are the distances from a row's low half to its high half
// they draw: adjacent, overlapping the low half's successor rows, apart.
var tileHiDeltas = []int{vecLanes, 10, 18, 64}

// newTileCase draws a tile call of depth k from pick. The source ends on the
// last element the call reads.
func newTileCase(k int, steps []int, hiDelta int, pick func() float32) tileCase {
	c := tileCase{hiDelta: hiDelta, k: k}
	c.dst = make([]float32, guardLen+tileRows*tileCols+guardLen)
	for i := range c.dst {
		c.dst[i] = canaryValue
	}
	for i := range c.dst[guardLen:][:tileRows*tileCols] {
		c.dst[guardLen+i] = pick() // overwritten, whatever it is
	}
	for f := range c.init {
		c.init[f] = pick()
	}
	c.w = make([]float32, tileRows*k)
	for i := range c.w {
		c.w[i] = pick()
	}
	c.offs = make([]int32, k)
	at := 3
	for p := range c.offs {
		c.offs[p] = int32(at)
		at += steps[p%len(steps)]
	}
	if k > 0 {
		c.src = make([]float32, int(c.offs[k-1])+hiDelta+vecLanes)
	}
	for i := range c.src {
		c.src[i] = pick()
	}
	c.want = append([]float32(nil), c.dst...)
	return c
}

func (c *tileCase) run(kernel func(acc *[tileRows * tileCols]float32, init *[tileRows]float32, w, src []float32, offs []int32, hiDelta, k int), dst []float32) {
	kernel((*[tileRows * tileCols]float32)(dst[guardLen:]), &c.init, c.w, c.src, c.offs, c.hiDelta, c.k)
}

// tileBounded are the specials small enough that no sum of 288 products of
// them leaves the finite range.
var tileBounded = slices.DeleteFunc(slices.Clone(specials), func(v float32) bool { return v > 1e4 || v < -1e4 })

// tileNaNs are the NaNs a tile must carry through: both signs, payloads,
// and two signalling ones, which arithmetic quiets and a bare store
// (k = 0) does not.
var tileNaNs = []uint32{0x7FC00000, 0xFFC00000, 0x7FC12345, 0xFFFFFFFF, 0x7F800001, 0xFF812345}

// TestTileMatchesSpec holds the micro-kernel — the assembly and the scalar
// body it stands in for — to an element-at-a-time restatement of its
// contract, bit for bit, NaN payloads included: depths around the loop's
// edges and a conv3_1-sized one, tables whose rows overlap, abut and lie
// apart, high halves next to, inside and far from the low ones, a source
// that ends on the last element read, special values in every operand, and
// canaries around the destination.
//
// Which payload survives where two different NaNs meet is the operand order
// the compiler picks for a scalar body, which Go leaves open, so no case
// holds two: an overflow case draws the extremes and both infinities, whose
// ∞·0 and ∞−∞ yield the one default NaN; a payload case draws a single NaN
// bit pattern among values that cannot overflow.
func TestTileMatchesSpec(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		r := tensor.NewRNG(0xA4B3)
		for _, k := range []int{0, 1, 2, 7, 8, 9, 288} {
			draw := func(from []float32, rare float32) func() float32 {
				return func() float32 {
					switch r.Intn(3) {
					case 0:
						return r.Float32()*4 - 2
					case 1:
						if r.Intn(2*k+4) == 0 {
							return rare
						}
					}
					return from[r.Intn(len(from))]
				}
			}
			type class struct {
				name string
				pick func() float32
			}
			classes := []class{
				{"+Inf", draw(specials, float32(math.Inf(1)))},
				{"-Inf", draw(specials, float32(math.Inf(-1)))},
			}
			for _, bits := range tileNaNs {
				classes = append(classes, class{fmt.Sprintf("NaN %#08x", bits), draw(tileBounded, math.Float32frombits(bits))})
			}
			for _, cl := range classes {
				for _, steps := range tileSteps {
					for _, hiDelta := range tileHiDeltas {
						c := newTileCase(k, steps, hiDelta, cl.pick)
						c.run(tileNaive, c.want)
						c.run(tile, c.dst)
						assertSameBits(t, fmt.Sprintf("tile k=%d steps %v hiDelta %d, %s (canaries included)", k, steps, hiDelta, cl.name), c.dst, c.want)
					}
				}
			}
		}
	})
}

// TestTileShortSourcePanics: the assembly checks nothing, so a source one
// element short of the last read must stop in the Go wrapper — as it stops
// in the scalar body's slicing.
func TestTileShortSourcePanics(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		for _, hiDelta := range tileHiDeltas {
			c := newTileCase(5, tileSteps[1], hiDelta, func() float32 { return 1 })
			c.src = c.src[: len(c.src)-1 : len(c.src)-1]
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("hiDelta %d: tile read past a source of %d elements", hiDelta, len(c.src))
					}
				}()
				c.run(tile, c.dst)
			}()
			assertSameBits(t, "destination of the refused call", c.dst, c.want)
		}
	})
}

// FuzzTileVecMatchesScalar lets the fuzzer pick the bit patterns of a
// weight and a panel value; each run builds a tile call around them and
// their neighbourhoods and holds the vector path to the scalar body. The
// fuzzer is free to make different NaNs meet, so here — and only here — a
// NaN matches any NaN (see TestTileMatchesSpec for why, and for the
// payloads).
func FuzzTileVecMatchesScalar(f *testing.F) {
	f.Add(uint64(1), math.Float32bits(0.5), math.Float32bits(-3))
	f.Add(uint64(2), uint32(0x7FC00000), math.Float32bits(1))
	f.Add(uint64(3), math.Float32bits(float32(math.Inf(1))), uint32(0x80000000))
	f.Add(uint64(4), math.Float32bits(1e-40), math.Float32bits(math.MaxFloat32))
	f.Add(uint64(5), uint32(0xFFC00001), uint32(0x7F800001))
	f.Fuzz(func(t *testing.T, seed uint64, wbits, vbits uint32) {
		pinVecPath(t, true)
		r := tensor.NewRNG(seed)
		pick := func() float32 {
			switch r.Intn(5) {
			case 0: // a fuzzed value and its neighbourhood
				return math.Float32frombits([]uint32{wbits, vbits}[r.Intn(2)] + uint32(r.Intn(5)) - 2)
			case 1: // the same magnitude with the other sign
				return math.Float32frombits([]uint32{wbits, vbits}[r.Intn(2)] ^ 0x80000000)
			case 2:
				return specials[r.Intn(len(specials))]
			default:
				return r.Float32()*4 - 2
			}
		}
		k := r.Intn(40)
		steps := append([][]int{{1 + r.Intn(20)}}, tileSteps...)[r.Intn(len(tileSteps)+1)]
		c := newTileCase(k, steps, tileHiDeltas[r.Intn(len(tileHiDeltas))], pick)
		c.run(tileScalar, c.want)
		c.run(tile, c.dst)
		for i, want := range c.want {
			if got := c.dst[i]; math.Float32bits(got) != math.Float32bits(want) && (got == got || want == want) {
				t.Fatalf("tile k=%d: element %d (canaries included) is %v (%#08x), scalar body gives %v (%#08x)",
					k, i, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	})
}

// TestAxpyZeroSkipIsBitInvisible pins the argument that let the backward
// input sweep drop its per-gradient zero test: onto an accumulator that
// starts at +0, adding a·(±0) never changes a bit, so the branch-free axpy
// equals the skipping loop.
func TestAxpyZeroSkipIsBitInvisible(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		r := tensor.NewRNG(0xA4B2)
		const n = 37
		got := make([]float32, n)
		want := make([]float32, n)
		x := make([]float32, n)
		for step := 0; step < 50; step++ {
			for i := range x {
				switch r.Intn(4) {
				case 0:
					x[i] = 0
				case 1:
					x[i] = float32(math.Copysign(0, -1))
				default:
					x[i] = r.Float32()*4 - 2
				}
			}
			a := r.Float32()*4 - 2
			axpy(got, x, a)
			for i, xv := range x {
				if xv == 0 {
					continue
				}
				want[i] += a * xv
			}
			assertSameBits(t, fmt.Sprintf("step %d", step), got, want)
		}
	})
}

func TestAxpyDoesNotAllocate(t *testing.T) {
	forEachVecPath(t, func(t *testing.T) {
		const n = 61
		buf := make([]float32, 2*n)
		d, x := buf[:n], buf[n:]
		if avg := testing.AllocsPerRun(100, func() { axpy(d, x, 1) }); avg != 0 {
			t.Errorf("axpy allocates %v times per call", avg)
		}
		c := newTileCase(9, tileSteps[0], vecLanes, func() float32 { return 1 })
		if avg := testing.AllocsPerRun(100, func() { c.run(tile, c.dst) }); avg != 0 {
			t.Errorf("tile allocates %v times per call", avg)
		}
	})
}

// BenchmarkTile measures the micro-kernel at the depths the zoo's VGG
// feeds it: conv1_1's 27 taps and conv3_1's 288.
func BenchmarkTile(b *testing.B) {
	for _, k := range []int{27, 288} {
		for _, vec := range []bool{true, false} {
			b.Run(fmt.Sprintf("k=%d/vec=%v", k, vec), func(b *testing.B) {
				pinVecPath(b, vec)
				i := 0
				c := newTileCase(k, []int{tileCols}, vecLanes, func() float32 { i++; return float32(i%7) * 1e-3 })
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.run(tile, c.dst)
				}
				b.ReportMetric(float64(tileRows*tileCols*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
