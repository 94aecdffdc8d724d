package memctrl

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestFromTensor(t *testing.T) {
	x := tensor.FromSlice([]float32{-2, 3}, 2)
	b := FromTensor(x, 1.5)
	if b.Lo != -4.5 || b.Hi != 4.5 {
		t.Fatalf("bounds %+v", b)
	}
	zero := tensor.New(4)
	bz := FromTensor(zero, 1.5)
	if bz.Hi <= 0 {
		t.Fatal("zero tensor should still get positive bounds")
	}
}

func TestZeroPolicy(t *testing.T) {
	b := &BoundingLogic{Policy: Zero}
	bounds := Bounds{Lo: -5, Hi: 5}
	if got := b.CorrectValue(3, bounds); got != 3 {
		t.Fatalf("in-range value altered: %v", got)
	}
	if got := b.CorrectValue(1e8, bounds); got != 0 {
		t.Fatalf("implausible value corrected to %v, want 0", got)
	}
	if got := b.CorrectValue(-1e8, bounds); got != 0 {
		t.Fatalf("negative implausible corrected to %v", got)
	}
	if b.Corrections != 2 {
		t.Fatalf("corrections = %d", b.Corrections)
	}
}

func TestSaturatePolicy(t *testing.T) {
	b := &BoundingLogic{Policy: Saturate}
	bounds := Bounds{Lo: -5, Hi: 5}
	if got := b.CorrectValue(1e8, bounds); got != 5 {
		t.Fatalf("saturate high gave %v", got)
	}
	if got := b.CorrectValue(-1e8, bounds); got != -5 {
		t.Fatalf("saturate low gave %v", got)
	}
}

func TestOffPolicy(t *testing.T) {
	b := &BoundingLogic{Policy: Off}
	if got := b.CorrectValue(1e30, Bounds{Lo: -1, Hi: 1}); got != 1e30 {
		t.Fatalf("off policy altered value to %v", got)
	}
}

func TestNaNCorrected(t *testing.T) {
	b := &BoundingLogic{Policy: Zero}
	nan := float32(math.NaN())
	if got := b.CorrectValue(nan, Bounds{Lo: -1, Hi: 1}); got != 0 {
		t.Fatalf("NaN corrected to %v", got)
	}
	bs := &BoundingLogic{Policy: Saturate}
	if got := bs.CorrectValue(nan, Bounds{Lo: -1, Hi: 1}); got != 0 {
		t.Fatalf("saturate NaN gave %v", got)
	}
}

func TestCorrectTensor(t *testing.T) {
	b := &BoundingLogic{Policy: Zero}
	x := tensor.FromSlice([]float32{1, 1e9, -2, float32(math.Inf(1))}, 4)
	q := quant.Quantize(x, quant.FP32)
	n := b.CorrectQTensor(q, Bounds{Lo: -5, Hi: 5})
	if n != 2 {
		t.Fatalf("corrected %d values, want 2", n)
	}
	if got := q.Dequantize().Data; got[0] != 1 || got[1] != 0 || got[2] != -2 || got[3] != 0 {
		t.Fatalf("tensor after correction: %v", got)
	}
}

func TestCorrectQTensorFP32ExponentFlip(t *testing.T) {
	// The §3.2 scenario: an exponent-bit flip creates an enormous value
	// that the bounding logic must zero.
	x := tensor.FromSlice([]float32{1.5, 2.0}, 2)
	q := quant.Quantize(x, quant.FP32)
	q.FlipBit(0, 30)
	if q.Value(0) < 1e30 {
		t.Fatal("test setup: exponent flip did not blow up")
	}
	b := &BoundingLogic{Policy: Zero}
	n := b.CorrectQTensor(q, Bounds{Lo: -10, Hi: 10})
	if n != 1 {
		t.Fatalf("corrected %d values", n)
	}
	if q.Value(0) != 0 || q.Value(1) != 2.0 {
		t.Fatalf("values after correction: %v %v", q.Value(0), q.Value(1))
	}
}

func TestPolicyString(t *testing.T) {
	if Zero.String() != "zero" || Saturate.String() != "saturate" || Off.String() != "off" {
		t.Fatal("policy names wrong")
	}
}

// TestCorrectQTensorMatchesValueLoop holds the code-space bounding to the
// per-value definition (correctValues, which FP32 still runs): for every
// precision and policy, over bounds wider than, equal to, narrower than and
// disjoint from the range the codes can decode to — plus inverted, one-sided,
// zero-excluding and NaN bounds — both must leave the same codes, return the
// same count and add the same number to Corrections.
func TestCorrectQTensorMatchesValueLoop(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	r := tensor.NewRNG(0xB0D5)
	for _, prec := range quant.Precisions {
		bits := prec.Bits()
		scales := []float32{1, 1.0 / 127, 0.37, 3e-3, 1e-45, 2e-39, 1e34, 3e38, 0, inf, nan, -0.5}
		if prec == quant.FP32 {
			scales = []float32{1}
		}
		for _, scale := range scales {
			// The representable range at this scale (FP32: a stand-in range
			// the random bit patterns straddle).
			rlo, rhi := -float32(int(1)<<(bits-1))*scale, float32(int(1)<<(bits-1)-1)*scale
			if prec == quant.FP32 {
				rlo, rhi = -1, 1
			}
			boundsCases := map[string]Bounds{
				"wider":             {1.5 * rlo, 1.5 * rhi},
				"equal":             {rlo, rhi},
				"narrower":          {0.5 * rlo, 0.25 * rhi},
				"one code wide":     {scale, scale},
				"lo side only":      {0.5 * rlo, inf},
				"hi side only":      {-inf, 0.5 * rhi},
				"excludes zero":     {0.1 * rhi, 0.6 * rhi},
				"negative only":     {0.6 * rlo, 0.1 * rlo},
				"disjoint above":    {2 * rhi, 3 * rhi},
				"disjoint below":    {3 * rlo, 2 * rlo},
				"inverted":          {0.5 * rhi, 0.5 * rlo},
				"NaN lo":            {nan, 0.5 * rhi},
				"NaN hi":            {0.5 * rlo, nan},
				"empty at zero":     {0, 0},
				"between two codes": {0.4 * scale, 0.6 * scale},
			}
			for name, bounds := range boundsCases {
				for _, policy := range []Policy{Zero, Saturate, Off} {
					q := &quant.QTensor{Prec: prec, Scale: scale, Shape: tensor.Shape{300}, Codes: make([]uint32, 300)}
					for i := range q.Codes {
						// Bits above the precision's are not part of the
						// value; every third code carries garbage there.
						q.Codes[i] = uint32(r.Uint64())
						if bits < 32 && i%3 != 0 {
							q.Codes[i] &= 1<<bits - 1
						}
					}
					q.Codes[0], q.Codes[1] = 0, 1<<(bits-1) // zero and the lowest code are always present
					want := q.Clone()
					got, oracle := &BoundingLogic{Policy: policy}, &BoundingLogic{Policy: policy}
					nGot := got.CorrectQTensor(q, bounds)
					nWant := 0
					if policy != Off {
						nWant = oracle.correctValues(want, bounds)
					}
					desc := prec.String() + " scale=" + fmtF(scale) + " " + name + " " + policy.String()
					if nGot != nWant || got.Corrections != oracle.Corrections {
						t.Fatalf("%s: rewrote %d with Corrections %d, value loop rewrote %d with Corrections %d",
							desc, nGot, got.Corrections, nWant, oracle.Corrections)
					}
					for i := range want.Codes {
						if q.Codes[i] != want.Codes[i] {
							t.Fatalf("%s: code %d is %#x, value loop leaves %#x", desc, i, q.Codes[i], want.Codes[i])
						}
					}
				}
			}
		}
	}
}

func fmtF(v float32) string { return strconv.FormatFloat(float64(v), 'g', -1, 32) }

// TestCorrectQTensorAllocatesNothing covers both routes through the
// code-space bounding: the whole-range-plausible return every calibrated
// serving tensor takes, and the compare pass.
func TestCorrectQTensorAllocatesNothing(t *testing.T) {
	x := tensor.New(4096)
	x.FillUniform(tensor.NewRNG(7), -2, 2)
	q := quant.Quantize(x, quant.Int8)
	b := &BoundingLogic{Policy: Zero}
	if n := b.CorrectQTensor(q, Bounds{Lo: -3, Hi: 3}); n != 0 || b.Corrections != 0 {
		t.Fatalf("calibrated-style bounds corrected %d values (Corrections %d)", n, b.Corrections)
	}
	for _, bounds := range []Bounds{{Lo: -3, Hi: 3}, {Lo: -1, Hi: 1.5}} {
		if allocs := testing.AllocsPerRun(50, func() { b.CorrectQTensor(q, bounds) }); allocs != 0 {
			t.Fatalf("CorrectQTensor(%+v) allocates %v times per call", bounds, allocs)
		}
	}
}
