package errormodel

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func uniformModel(ber float64) *Model {
	return &Model{Kind: Model0, Seed: 1, RowBits: 2048, P: 1, FA: ber}
}

func TestAggregateBER(t *testing.T) {
	m := &Model{Kind: Model0, P: 0.1, FA: 0.5}
	if got := m.AggregateBER(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Model0 BER = %v", got)
	}
	m3 := &Model{Kind: Model3, P: 0.2, FV1: 0.4, FV0: 0.1}
	if got := m3.AggregateBER(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Model3 BER = %v", got)
	}
	m1 := &Model{Kind: Model1, PB: make([]float64, Groups), FB: make([]float64, Groups)}
	for g := range m1.PB {
		m1.PB[g] = 0.5
		m1.FB[g] = 0.2
	}
	if got := m1.AggregateBER(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("Model1 BER = %v", got)
	}
}

func TestScaledToHitsTarget(t *testing.T) {
	m := &Model{Kind: Model0, Seed: 3, RowBits: 128, P: 0.3, FA: 0.1}
	for _, target := range []float64{1e-4, 1e-2, 0.02} {
		s := m.ScaledTo(target)
		if math.Abs(s.AggregateBER()-target) > target*1e-9 {
			t.Fatalf("ScaledTo(%v) BER = %v", target, s.AggregateBER())
		}
	}
	if m.FA != 0.1 {
		t.Fatal("ScaledTo mutated the receiver")
	}
}

func TestScaledToDegenerate(t *testing.T) {
	m := &Model{Kind: Model1, Seed: 4, RowBits: 128, PB: make([]float64, Groups), FB: make([]float64, Groups)}
	s := m.ScaledTo(0.01)
	if math.Abs(s.AggregateBER()-0.01) > 1e-12 {
		t.Fatalf("degenerate ScaledTo BER = %v", s.AggregateBER())
	}
}

func TestWeakCellsStable(t *testing.T) {
	m := &Model{Kind: Model0, Seed: 5, RowBits: 256, P: 0.3, FA: 1}
	for i := 0; i < 100; i++ {
		if m.IsWeak(i, i*7%256) != m.IsWeak(i, i*7%256) {
			t.Fatal("weak-cell map not deterministic")
		}
	}
	weak := 0
	n := 20000
	for i := 0; i < n; i++ {
		if m.IsWeak(i/256, i%256) {
			weak++
		}
	}
	frac := float64(weak) / float64(n)
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("weak fraction %v, want ~0.3", frac)
	}
}

func TestInjectorRate(t *testing.T) {
	const ber = 0.01
	m := uniformModel(ber)
	in := NewInjector(m)
	x := tensor.New(20000)
	x.FillNormal(tensor.NewRNG(1), 1)
	q := quant.Quantize(x, quant.Int8)
	flips := in.Inject(q, 0)
	rate := float64(flips) / float64(q.NumBits())
	if math.Abs(rate-ber) > ber*0.3 {
		t.Fatalf("injected rate %v, want ~%v", rate, ber)
	}
}

func TestInjectorTransience(t *testing.T) {
	m := uniformModel(0.05)
	in := NewInjector(m)
	x := tensor.New(5000)
	x.FillNormal(tensor.NewRNG(2), 1)
	q1 := quant.Quantize(x, quant.Int8)
	q2 := q1.Clone()
	in.Inject(q1, 0)
	in.NextPass()
	in.Inject(q2, 0)
	same := true
	for i := range q1.Codes {
		if q1.Codes[i] != q2.Codes[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two passes injected identical error patterns")
	}
}

func TestInjectorZeroBERIsNoop(t *testing.T) {
	m := uniformModel(0)
	in := NewInjector(m)
	x := tensor.New(1000)
	x.FillNormal(tensor.NewRNG(3), 1)
	q := quant.Quantize(x, quant.FP32)
	orig := q.Clone()
	if flips := in.Inject(q, 0); flips != 0 {
		t.Fatalf("zero-BER model injected %d flips", flips)
	}
	for i := range q.Codes {
		if q.Codes[i] != orig.Codes[i] {
			t.Fatal("zero-BER model altered data")
		}
	}
}

func TestModel1ConcentratesOnBitlines(t *testing.T) {
	// All weakness on one bitline group: flips should only land on value
	// bits mapping to that group.
	m := &Model{Kind: Model1, Seed: 7, RowBits: 2048, PB: make([]float64, Groups), FB: make([]float64, Groups)}
	m.PB[3] = 1
	m.FB[3] = 0.5
	in := NewInjector(m)
	x := tensor.New(4096)
	x.Fill(1)
	q := quant.Quantize(x, quant.Int8)
	before := q.Clone()
	in.Inject(q, 0)
	for i := range q.Codes {
		diff := q.Codes[i] ^ before.Codes[i]
		for k := 0; k < 8; k++ {
			if diff>>uint(k)&1 == 1 {
				bitline := (i*8 + k) % m.RowBits
				if bitline%Groups != 3 {
					t.Fatalf("flip on bitline group %d, want 3", bitline%Groups)
				}
			}
		}
	}
}

func TestModel3DataDependence(t *testing.T) {
	m := &Model{Kind: Model3, Seed: 8, RowBits: 2048, P: 1, FV1: 0.2, FV0: 0.002}
	in := NewInjector(m)
	ones := tensor.New(8000)
	ones.Fill(-1) // int8 code 0xFF... all ones after quantization to -127? Use FP32 all-ones pattern instead.
	q := quant.Quantize(ones, quant.Int8)
	// Count stored one-bits and zero-bits and their flips.
	before := q.Clone()
	in.Inject(q, 0)
	var ones1, flips1, zeros0, flips0 int
	for i := range q.Codes {
		diff := q.Codes[i] ^ before.Codes[i]
		for k := 0; k < 8; k++ {
			stored := before.Codes[i]>>uint(k)&1 == 1
			flipped := diff>>uint(k)&1 == 1
			if stored {
				ones1++
				if flipped {
					flips1++
				}
			} else {
				zeros0++
				if flipped {
					flips0++
				}
			}
		}
	}
	if ones1 == 0 || zeros0 == 0 {
		t.Fatal("test data lacks both polarities")
	}
	r1 := float64(flips1) / float64(ones1)
	r0 := float64(flips0) / float64(zeros0)
	if r1 < r0*5 {
		t.Fatalf("1-bit flip rate %v not clearly above 0-bit rate %v", r1, r0)
	}
}

// Property: ScaledTo preserves kind and hits any reasonable target.
func TestScaledToProperty(t *testing.T) {
	f := func(seed uint64, t8 uint8) bool {
		target := (float64(t8%100) + 1) / 1000 // 0.001 .. 0.1
		m := &Model{Kind: Model3, Seed: seed, RowBits: 512, P: 0.4, FV1: 0.3, FV0: 0.05}
		s := m.ScaledTo(target)
		return s.Kind == Model3 && math.Abs(s.AggregateBER()-target) < target*1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Model0.String() != "Error Model 0" || Model3.String() != "Error Model 3" {
		t.Fatal("unexpected kind names")
	}
}

// kindModels returns one model of each kind with uneven group parameters,
// including groups no cell of which is weak and groups all of whose are.
func kindModels(rowBits int) []*Model {
	m1 := &Model{Kind: Model1, Seed: 23, RowBits: rowBits, PB: make([]float64, Groups), FB: make([]float64, Groups)}
	m2 := &Model{Kind: Model2, Seed: 25, RowBits: rowBits, PW: make([]float64, Groups), FW: make([]float64, Groups)}
	for g := 0; g < Groups; g++ {
		p := []float64{0, 0.004, 0.3, 1}[g%4] * float64(g+1) / Groups
		m1.PB[g], m1.FB[g] = p, 0.2
		m2.PW[Groups-1-g], m2.FW[g] = p, 0.1
	}
	return []*Model{
		{Kind: Model0, Seed: 21, RowBits: rowBits, P: 0.07, FA: 0.25},
		m1,
		m2,
		{Kind: Model3, Seed: 27, RowBits: rowBits, P: 0.3, FV1: 0.5, FV0: 0.01},
	}
}

// TestWeakPositionsMatchesIsWeak holds the incremental integer scan to the
// per-cell float predicate it replaces, across row boundaries of a row
// width that is neither a power of two nor a multiple of the group count,
// and at the weak probabilities where an off-by-one in the threshold shows.
func TestWeakPositionsMatchesIsWeak(t *testing.T) {
	models := kindModels(200)
	for _, p := range []float64{0, 1, 1.5, -0.1, math.NaN(), 1 / float64(1<<53), 1 - 1/float64(1<<53), 0.5} {
		models = append(models, &Model{Kind: Model0, Seed: 9, RowBits: 200, P: p, FA: 0.1})
	}
	for _, m := range models {
		for _, base := range []int{0, 7, 200, 3*200 + 199} {
			const n = 5000
			var want []int32
			for rel := 0; rel < n; rel++ {
				if pos := base + rel; m.IsWeak(pos/m.RowBits, pos%m.RowBits) {
					want = append(want, int32(rel))
				}
			}
			got := NewInjector(m).WeakPositions(n, base)
			if len(got) != len(want) {
				t.Fatalf("%v P=%v base %d: %d weak cells, IsWeak finds %d", m.Kind, m.P, base, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v P=%v base %d: weak[%d] = %d, want %d", m.Kind, m.P, base, i, got[i], want[i])
				}
			}
		}
	}
	// The threshold itself, at draws either side of it.
	for _, p := range []float64{0.3, 1e-9, 0.999999, 1 / float64(1<<53), 3 / float64(1<<54)} {
		thr := weakThreshold(p)
		for _, k := range []uint64{thr - 1, thr, thr + 1} {
			if k >= 1<<53 {
				continue
			}
			if (float64(k)/float64(1<<53) < p) != (k < thr) {
				t.Fatalf("P=%v draw %d: integer and float comparisons disagree (threshold %d)", p, k, thr)
			}
		}
	}
}

// TestSharedWeakPositionsMatchesScan asks one model's shared lists for
// spans that grow and shrink at several offsets, through the model itself
// and through ScaledTo copies, and compares every answer with a direct
// scan.
func TestSharedWeakPositionsMatchesScan(t *testing.T) {
	for _, m := range kindModels(200) {
		scaled := m.ScaledTo(0.01)
		for _, base := range []int{0, 600, 123} {
			for i, n := range []int{700, 300, 0, 701, 5000, 4999, 5000, 12000, 1} {
				src := m
				if i%2 == 1 {
					src = scaled
				}
				got := src.SharedWeakPositions(n, base)
				want := NewInjector(m).WeakPositions(n, base)
				if len(got) != len(want) {
					t.Fatalf("%v base %d span %d: %d weak cells, scan finds %d", m.Kind, base, n, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%v base %d span %d: weak[%d] = %d, want %d", m.Kind, base, n, j, got[j], want[j])
					}
				}
			}
		}
		if scaled.weak != m.weak {
			t.Fatalf("%v: ScaledTo copy does not share the model's weak lists", m.Kind)
		}
	}
	// A degenerate fit scales into a different weak-cell population and must
	// not inherit the lists.
	flat := &Model{Kind: Model1, Seed: 4, RowBits: 128, PB: make([]float64, Groups), FB: make([]float64, Groups)}
	if len(flat.SharedWeakPositions(1000, 0)) != 0 {
		t.Fatal("error-free model has weak cells")
	}
	if got := flat.ScaledTo(0.01).SharedWeakPositions(1000, 0); len(got) != 1000 {
		t.Fatalf("degenerate ScaledTo copy lists %d weak cells of 1000, want all", len(got))
	}
}

// TestSharedWeakPositionsConcurrent hits one model's lists from several
// goroutines at once — through the model and through ScaledTo copies made
// concurrently, on a model whose lists do not exist yet — the way parallel
// characterization probes do. Run with -race.
func TestSharedWeakPositionsConcurrent(t *testing.T) {
	for _, m := range kindModels(200) {
		want := NewInjector(m).WeakPositions(9000, 400)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := m
				if g%2 == 1 {
					src = m.ScaledTo(0.001 * float64(g))
				}
				for i := 0; i < 20; i++ {
					n := 9000 * ((i+g)%4 + 1) / 4
					got := src.SharedWeakPositions(n, 400)
					for j, rel := range got {
						if rel != want[j] || int(rel) >= n {
							t.Errorf("%v goroutine %d span %d: weak[%d] = %d, want %d", m.Kind, g, n, j, rel, want[j])
							return
						}
					}
					if len(got) < len(want) && int(want[len(got)]) < n {
						t.Errorf("%v goroutine %d span %d: list stops at %d cells", m.Kind, g, n, len(got))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
