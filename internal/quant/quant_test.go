package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestPrecisionBits(t *testing.T) {
	want := map[Precision]int{FP32: 32, Int16: 16, Int8: 8, Int4: 4}
	for p, b := range want {
		if p.Bits() != b {
			t.Errorf("%v.Bits() = %d, want %d", p, p.Bits(), b)
		}
	}
}

func TestPrecisionString(t *testing.T) {
	if FP32.String() != "FP32" || Int8.String() != "int8" {
		t.Fatalf("unexpected names %v %v", FP32, Int8)
	}
}

// TestParsePrecisionRoundTrip holds ParsePrecision to String: every
// supported precision parses back from its own name, the flags' lower-case
// "fp32" is accepted, and anything else is an error.
func TestParsePrecisionRoundTrip(t *testing.T) {
	for _, p := range Precisions {
		if got, err := ParsePrecision(p.String()); err != nil || got != p {
			t.Errorf("ParsePrecision(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if got, err := ParsePrecision("fp32"); err != nil || got != FP32 {
		t.Errorf(`ParsePrecision("fp32") = %v, %v; want FP32`, got, err)
	}
	for _, bad := range []string{"", "int2", "INT8", "Precision(7)"} {
		if _, err := ParsePrecision(bad); err == nil {
			t.Errorf("ParsePrecision(%q) should fail", bad)
		}
	}
}

func TestFP32RoundTripIsExact(t *testing.T) {
	in := tensor.FromSlice([]float32{0, 1, -1, 3.14159, -2.5e10, 1e-30}, 6)
	q := Quantize(in, FP32)
	out := q.Dequantize()
	for i := range in.Data {
		if in.Data[i] != out.Data[i] {
			t.Fatalf("FP32 round trip altered value %d: %v -> %v", i, in.Data[i], out.Data[i])
		}
	}
}

func TestInt8QuantizationRange(t *testing.T) {
	in := tensor.FromSlice([]float32{-127, 0, 63.5, 127}, 4)
	q := Quantize(in, Int8)
	if q.Scale != 1 {
		t.Fatalf("scale = %v, want 1", q.Scale)
	}
	out := q.Dequantize()
	want := []float32{-127, 0, 64, 127} // 63.5 rounds to 64
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestQuantizationErrorBounded(t *testing.T) {
	r := tensor.NewRNG(1)
	in := tensor.New(1000)
	in.FillUniform(r, -5, 5)
	for _, p := range []Precision{Int16, Int8, Int4} {
		q := Quantize(in, p)
		// Error bounded by half a quantization step.
		maxErr := float64(q.Scale) / 2 * 1.0001
		out := q.Dequantize()
		for i := range in.Data {
			e := math.Abs(float64(in.Data[i] - out.Data[i]))
			if e > maxErr {
				t.Fatalf("%v: error %v exceeds half step %v", p, e, maxErr)
			}
		}
	}
}

func TestQuantizationErrorMonotoneInBits(t *testing.T) {
	r := tensor.NewRNG(2)
	in := tensor.New(2000)
	in.FillNormal(r, 2)
	meanAbsErr := func(p Precision) float64 {
		d := Quantize(in, p).Dequantize()
		var sum float64
		for i := range in.Data {
			sum += math.Abs(float64(in.Data[i] - d.Data[i]))
		}
		return sum / float64(in.Size())
	}
	e16, e8, e4 := meanAbsErr(Int16), meanAbsErr(Int8), meanAbsErr(Int4)
	if !(e16 < e8 && e8 < e4) {
		t.Fatalf("errors not monotone: %v %v %v", e16, e8, e4)
	}
	if meanAbsErr(FP32) != 0 {
		t.Fatal("FP32 quantization error should be zero")
	}
}

func TestZeroTensorQuantizes(t *testing.T) {
	in := tensor.New(16)
	for _, p := range Precisions {
		q := Quantize(in, p)
		out := q.Dequantize()
		for i, v := range out.Data {
			if v != 0 {
				t.Fatalf("%v: zero tensor value %d became %v", p, i, v)
			}
		}
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		c    uint32
		b    int
		want int32
	}{
		{0x0F, 4, -1},
		{0x07, 4, 7},
		{0x08, 4, -8},
		{0xFF, 8, -1},
		{0x7F, 8, 127},
		{0x80, 8, -128},
		{0xFFFF, 16, -1},
	}
	for _, c := range cases {
		if got := signExtend(c.c, c.b); got != c.want {
			t.Errorf("signExtend(%#x, %d) = %d, want %d", c.c, c.b, got, c.want)
		}
	}
}

func TestFlipBitFP32Exponent(t *testing.T) {
	in := tensor.FromSlice([]float32{1.0}, 1)
	q := Quantize(in, FP32)
	// Flipping a high exponent bit of 1.0 produces a huge value — the
	// phenomenon the paper's bounding logic guards against (§3.2).
	q.FlipBit(0, 30)
	v := q.Value(0)
	if !(v > 1e30) {
		t.Fatalf("exponent flip produced %v, expected enormous value", v)
	}
	q.FlipBit(0, 30)
	if q.Value(0) != 1.0 {
		t.Fatal("double flip did not restore value")
	}
}

func TestFlipBitInt8MSB(t *testing.T) {
	in := tensor.FromSlice([]float32{10, 20}, 2)
	q := Quantize(in, Int8)
	orig := q.Value(0)
	q.FlipBit(0, 7) // sign bit
	if q.Value(0) >= 0 {
		t.Fatalf("sign-bit flip of %v produced %v, expected negative", orig, q.Value(0))
	}
	if q.Value(1) != 20 {
		t.Fatal("flip affected wrong value")
	}
}

func TestBitAccessor(t *testing.T) {
	in := tensor.FromSlice([]float32{1}, 1)
	q := Quantize(in, Int8)
	// code for 1.0 at scale 1/127... nonzero LSB region; just test coherence.
	for b := 0; b < 8; b++ {
		was := q.Bit(0, b)
		q.FlipBit(0, b)
		if q.Bit(0, b) == was {
			t.Fatalf("FlipBit(%d) did not change Bit", b)
		}
		q.FlipBit(0, b)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	r := tensor.NewRNG(3)
	for _, p := range Precisions {
		in := tensor.New(33) // odd count exercises int4 packing
		in.FillNormal(r, 1)
		q := Quantize(in, p)
		img := q.Pack()
		if len(img) != q.Bytes() {
			t.Fatalf("%v: Pack length %d, want %d", p, len(img), q.Bytes())
		}
		q2 := q.Clone()
		for i := range q2.Codes {
			q2.Codes[i] = 0
		}
		q2.Unpack(img)
		for i := range q.Codes {
			if q.Codes[i] != q2.Codes[i] {
				t.Fatalf("%v: code %d mismatch %#x vs %#x", p, i, q.Codes[i], q2.Codes[i])
			}
		}
	}
}

func TestInt4PackingDensity(t *testing.T) {
	in := tensor.New(10)
	q := Quantize(in, Int4)
	if q.Bytes() != 5 {
		t.Fatalf("10 int4 values should occupy 5 bytes, got %d", q.Bytes())
	}
}

func TestCloneIndependence(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2}, 2)
	q := Quantize(in, Int8)
	c := q.Clone()
	c.Codes[0] ^= 0xFF
	if q.Codes[0] == c.Codes[0] {
		t.Fatal("Clone aliases codes")
	}
}

// Property: quantize→dequantize→quantize is stable (idempotent on codes).
func TestQuantizeIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		in := tensor.New(50)
		in.FillUniform(r, -8, 8)
		for _, p := range []Precision{Int16, Int8, Int4} {
			q1 := Quantize(in, p)
			d := q1.Dequantize()
			q2 := Quantize(d, p)
			for i := range q1.Codes {
				// Scales can differ slightly if the max value was clipped;
				// compare decoded values instead of raw codes.
				if math.Abs(float64(q1.Value(i)-q2.Value(i))) > float64(q1.Scale)*0.51 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pack/Unpack is the identity for random code patterns, including
// patterns that arise only after bit flips (invalid codes still round trip).
func TestPackUnpackProperty(t *testing.T) {
	f := func(seed uint64, pidx uint8) bool {
		p := Precisions[int(pidx)%len(Precisions)]
		r := tensor.NewRNG(seed)
		in := tensor.New(17)
		in.FillNormal(r, 3)
		q := Quantize(in, p)
		for i := range q.Codes {
			if r.Float64() < 0.3 {
				q.FlipBit(i, r.Intn(p.Bits()))
			}
		}
		img := q.Pack()
		q2 := q.Clone()
		q2.Unpack(img)
		for i := range q.Codes {
			if q.Codes[i] != q2.Codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSetValue(t *testing.T) {
	in := tensor.FromSlice([]float32{100, -100}, 2)
	q := Quantize(in, Int8)
	q.SetValue(0, 50)
	if math.Abs(float64(q.Value(0)-50)) > float64(q.Scale) {
		t.Fatalf("SetValue stored %v, want ~50", q.Value(0))
	}
	qf := Quantize(in, FP32)
	qf.SetValue(1, 3.5)
	if qf.Value(1) != 3.5 {
		t.Fatalf("FP32 SetValue stored %v", qf.Value(1))
	}
}
