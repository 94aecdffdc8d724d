package bench

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}, {0.1, 10}, {0.01, 10},
	} {
		if got := Percentile(asc, c.q); got != c.want {
			t.Errorf("Percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.90, true},    // rank 90, ten beyond
		{99, 0.90, false},    // rank 90, nine beyond
		{1000, 0.99, true},   // rank 990
		{999, 0.99, false},   // rank 990, nine beyond
		{20, 0.50, true},     // rank 10
		{19, 0.50, false},    // rank 10, nine beyond
		{5000, 0.999, false}, // rank 4995, five beyond
	} {
		if got := Supported(c.n, c.q); got != c.want {
			t.Errorf("Supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianOfSlices(t *testing.T) {
	// One stalled slice out of four must not move the reading the way it
	// moves a mean.
	if got := Median([]float64{600, 610, 590, 200}); got != 595 {
		t.Errorf("even count: got %v, want 595", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: got %v, want 2", got)
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median reordered its input")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("ten values: got %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = Quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("three values: got %v, %v, want 1, 4", q1, q3)
	}
	if got, want := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}
