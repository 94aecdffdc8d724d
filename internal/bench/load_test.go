package bench

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestParseSteal(t *testing.T) {
	stat := "cpu  3299926 0 234044 3276982 16923 0 82014 294056 0 0\ncpu0 1640595 0 119079 1640060 10919 0 40355 147981 0 0\n"
	if d, ok := parseSteal(stat); !ok || d != 294056*10*time.Millisecond {
		t.Errorf("steal = %v, %v; want 2940.56s", d, ok)
	}
	for _, bad := range []string{"", "cpu 1 2 3", "intr 1 2 3 4 5 6 7 8 9", "cpu a b c d e f g h i"} {
		if _, ok := parseSteal(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestUndisturbed(t *testing.T) {
	for _, c := range []struct {
		name  string
		steal []float64
		want  []int
	}{
		{"a quiet host counts everything", []float64{0, 0.005, 0.015, 0}, []int{0, 1, 2, 3}},
		{"a burst is left out", []float64{0, 0.24, 0.36, 0.01, 0, 0.021, 0, 0}, []int{0, 3, 4, 6, 7}},
		{"too few quiet intervals: report what was seen", []float64{0.3, 0.2, 0, 0.4, 0.3, 0.2, 0.1, 0.5}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"a single interval", []float64{0.3}, []int{0}},
	} {
		if got := undisturbed(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStealShare(t *testing.T) {
	// One stolen second in a two-second interval is half of one CPU.
	if got := stealShare(time.Second, 2*time.Second) * float64(runtime.NumCPU()); got != 0.5 {
		t.Errorf("share x CPUs = %v, want 0.5", got)
	}
	if got := stealShare(time.Second, 0); got != 0 {
		t.Errorf("share of an empty interval = %v", got)
	}
}
