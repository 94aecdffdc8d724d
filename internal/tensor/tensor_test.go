package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShapeSize(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 1},
		{Shape{4}, 4},
		{Shape{2, 3}, 6},
		{Shape{1, 3, 16, 16}, 768},
		{Shape{0, 5}, 0},
	}
	for _, c := range cases {
		if got := c.s.Size(); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{2, 3, 4}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatalf("clone not equal: %v vs %v", s, c)
	}
	c[0] = 9
	if s[0] == 9 {
		t.Fatal("Clone aliases original")
	}
	if s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 3, 5}) {
		t.Fatal("Equal matched different shapes")
	}
}

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 {
		t.Fatalf("size = %d, want 24", a.Size())
	}
	a.Set(7, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if got := a.At(0, 0, 0); got != 0 {
		t.Fatalf("zero value not zero: %v", got)
	}
	// Row-major layout: last axis is contiguous.
	a.Set(5, 0, 0, 1)
	if a.Data[1] != 5 {
		t.Fatal("layout is not row-major")
	}
}

func TestIndexPanics(t *testing.T) {
	a := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			a.At(idx...)
		}()
	}
}

func TestReshape(t *testing.T) {
	a := New(2, 6)
	a.Data[7] = 3
	b := a.Reshape(3, 4)
	if b.At(1, 3) != 3 {
		t.Fatal("reshape does not alias data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	a.Reshape(5, 5)
}

func TestFromSlice(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", a.At(1, 2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched FromSlice did not panic")
		}
	}()
	FromSlice([]float32{1}, 2, 3)
}

func TestCloneIndependence(t *testing.T) {
	a := New(4)
	a.Fill(2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 2 {
		t.Fatal("Clone aliases data")
	}
}

func TestAddScaledScale(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	a.AddScaled(b, 0.5)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("AddScaled got %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 12 || a.Data[1] != 24 {
		t.Fatalf("Scale got %v", a.Data)
	}
}

func TestStatsAndNorms(t *testing.T) {
	a := FromSlice([]float32{-3, 4}, 2)
	mean, std := a.Stats()
	if math.Abs(mean-0.5) > 1e-9 || math.Abs(std-3.5) > 1e-9 {
		t.Fatalf("Stats = %v, %v", mean, std)
	}
	if a.ArgMax() != 1 {
		t.Fatalf("ArgMax = %d", a.ArgMax())
	}
	if a.CountNonZero() != 2 {
		t.Fatalf("CountNonZero = %d", a.CountNonZero())
	}
	empty := New(0)
	if empty.ArgMax() != -1 {
		t.Fatal("ArgMax of empty tensor should be -1")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2D(in, 2, 2)
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	dOut := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	dIn := MaxPool2DBackward(dOut, arg, in.Shape())
	if dIn.At(0, 0, 1, 1) != 1 || dIn.At(0, 0, 0, 0) != 0 {
		t.Fatal("pool backward routed gradient wrongly")
	}
}

func TestAvgPoolGlobal(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := AvgPool2DGlobal(in)
	if out.At(0, 0, 0, 0) != 2.5 || out.At(0, 1, 0, 0) != 25 {
		t.Fatalf("avg pool got %v", out.Data)
	}
	dIn := AvgPool2DGlobalBackward(out, in.Shape())
	if dIn.At(0, 0, 0, 0) != 2.5/4 {
		t.Fatalf("avg pool backward got %v", dIn.At(0, 0, 0, 0))
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	r := NewRNG(3)
	a := New(2, 3, 4, 4)
	a.FillNormal(r, 1)
	b := New(2, 5, 4, 4)
	b.FillNormal(r, 1)
	cat := Concat(a, b)
	if !cat.Shape().Equal(Shape{2, 8, 4, 4}) {
		t.Fatalf("concat shape %v", cat.Shape())
	}
	parts := SplitChannels(cat, []int{3, 5})
	for i, v := range a.Data {
		if parts[0].Data[i] != v {
			t.Fatalf("split[0] mismatch at %d", i)
		}
	}
	for i, v := range b.Data {
		if parts[1].Data[i] != v {
			t.Fatalf("split[1] mismatch at %d", i)
		}
	}
}

func TestSoftmax(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	out := Softmax(in)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += float64(out.At(i, j))
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Large inputs must not produce NaN (stability check).
	if out.At(1, 0) != out.At(1, 1) {
		t.Fatal("uniform logits should produce uniform softmax")
	}
	if out.At(0, 2) <= out.At(0, 1) {
		t.Fatal("softmax is not monotone")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		n := r.Intn(17)
		if n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %v", n)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(5)
	var sum, sq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

// Property: Concat followed by SplitChannels is the identity.
func TestConcatSplitProperty(t *testing.T) {
	f := func(seed uint64, c1, c2 uint8) bool {
		r := NewRNG(seed)
		a := New(1, int(c1%4)+1, 3, 3)
		a.FillNormal(r, 1)
		b := New(1, int(c2%4)+1, 3, 3)
		b.FillNormal(r, 1)
		parts := SplitChannels(Concat(a, b), []int{a.Dim(1), b.Dim(1)})
		for i := range a.Data {
			if parts[0].Data[i] != a.Data[i] {
				return false
			}
		}
		for i := range b.Data {
			if parts[1].Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite input.
func TestSoftmaxProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		in := New(2, 7)
		in.FillUniform(r, -50, 50)
		out := Softmax(in)
		for i := 0; i < 2; i++ {
			var sum float64
			for j := 0; j < 7; j++ {
				v := out.At(i, j)
				if v < 0 || math.IsNaN(float64(v)) {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
