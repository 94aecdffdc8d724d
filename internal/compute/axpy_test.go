package compute

import (
	"fmt"
	"math"
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

// TestAxpyVectorMatchesScalarSpec holds the assembly to the scalar bodies
// bit for bit: every length around the 8-lane step (0…67), every start
// misalignment (0…7 elements), special values in every operand, and
// canaries that fail the test if a single lane beyond a row is touched.
func TestAxpyVectorMatchesScalarSpec(t *testing.T) {
	pinVecPath(t, true)
	r := tensor.NewRNG(0xA4B1)
	for n := 0; n <= 67; n++ {
		for offset := 0; offset < 8; offset++ {
			// rows[i] is what the wrapper under test updates inside
			// backs[i]; wants[i] is a copy of backs[i] whose same window
			// the scalar body updates. The source row x comes last.
			fresh := func(k int) (backs, rows, wants [][]float32) {
				for i := 0; i < k; i++ {
					back, row := guardedRow(r, n, offset)
					backs, rows = append(backs, back), append(rows, row)
					wants = append(wants, append([]float32(nil), back...))
				}
				return backs, rows, wants
			}
			window := func(back []float32) []float32 { return back[offset+guardLen : offset+guardLen+n] }
			var a [4]float32
			for i := range a {
				a[i] = specials[r.Intn(len(specials))]
			}

			backs, rows, wants := fresh(5)
			axpy4Scalar(window(wants[0]), window(wants[1]), window(wants[2]), window(wants[3]), window(wants[4]), a[0], a[1], a[2], a[3])
			axpy4(rows[0], rows[1], rows[2], rows[3], rows[4], a[0], a[1], a[2], a[3])
			for i := range backs {
				assertSameBits(t, fmt.Sprintf("axpy4 n=%d offset=%d row %d (canaries included)", n, offset, i), backs[i], wants[i])
			}

			backs, rows, wants = fresh(2)
			axpyScalar(window(wants[0]), window(wants[1]), a[0])
			axpy(rows[0], rows[1], a[0])
			for i := range backs {
				assertSameBits(t, fmt.Sprintf("axpy n=%d offset=%d row %d (canaries included)", n, offset, i), backs[i], wants[i])
			}
		}
	}
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
		buf := make([]float32, 5*n)
		d0, d1, d2, d3, x := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
		if avg := testing.AllocsPerRun(100, func() { axpy4(d0, d1, d2, d3, x, 1, 2, 3, 4) }); avg != 0 {
			t.Errorf("axpy4 allocates %v times per call", avg)
		}
		if avg := testing.AllocsPerRun(100, func() { axpy(d0, x, 1) }); avg != 0 {
			t.Errorf("axpy allocates %v times per call", avg)
		}
	})
}

// BenchmarkAxpy4 measures the primitive at the row lengths the zoo's VGG
// feeds it: one 4×4 output plane (conv3_1) and a 14-row block of a
// 16×16 plane (conv1_2, where most of the forward's MACs are).
func BenchmarkAxpy4(b *testing.B) {
	for _, n := range []int{16, 224} {
		for _, vec := range []bool{true, false} {
			b.Run(fmt.Sprintf("n=%d/vec=%v", n, vec), func(b *testing.B) {
				pinVecPath(b, vec)
				buf := make([]float32, 5*n)
				for i := range buf {
					buf[i] = float32(i%7) * 1e-3
				}
				d0, d1, d2, d3, x := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					axpy4(d0, d1, d2, d3, x, 1e-3, 2e-3, -1e-3, -2e-3)
				}
				b.ReportMetric(float64(4*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
