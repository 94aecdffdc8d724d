package errormodel

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// synthesizeProfile generates observations from a ground-truth model.
func synthesizeProfile(truth *Model, rows, rowBits, reads int, seed uint64) *Profile {
	rng := tensor.NewRNG(seed)
	p := &Profile{RowBits: rowBits}
	for row := 0; row < rows; row++ {
		for bl := 0; bl < rowBits; bl++ {
			var obs CellObs
			weak := truth.IsWeak(row, bl)
			for r := 0; r < reads; r++ {
				storedOne := (row+bl+r)%2 == 0
				var rate float64
				if weak {
					rate = truth.flipRate(row, bl, storedOne)
				}
				flip := rng.Float64() < rate
				if storedOne {
					obs.OnesReads++
					if flip {
						obs.OnesFlips++
					}
				} else {
					obs.ZerosReads++
					if flip {
						obs.ZerosFlips++
					}
				}
			}
			p.Cells = append(p.Cells, obs)
		}
	}
	return p
}

func TestFitModel0Recovery(t *testing.T) {
	truth := &Model{Kind: Model0, Seed: 11, RowBits: 256, P: 0.2, FA: 0.3}
	prof := synthesizeProfile(truth, 64, 256, 8, 1)
	fit := FitModel0(prof, 11)
	if math.Abs(fit.P-0.2) > 0.05 {
		t.Fatalf("fit P = %v, want ~0.2", fit.P)
	}
	if math.Abs(fit.FA-0.3) > 0.05 {
		t.Fatalf("fit FA = %v, want ~0.3", fit.FA)
	}
	if math.Abs(fit.AggregateBER()-truth.AggregateBER()) > 0.01 {
		t.Fatalf("fit BER %v vs truth %v", fit.AggregateBER(), truth.AggregateBER())
	}
}

func TestFitModel3RecoversAsymmetry(t *testing.T) {
	truth := &Model{Kind: Model3, Seed: 13, RowBits: 256, P: 0.3, FV1: 0.4, FV0: 0.05}
	prof := synthesizeProfile(truth, 64, 256, 8, 2)
	fit := FitModel3(prof, 13)
	if fit.FV1 < fit.FV0*3 {
		t.Fatalf("fit FV1 %v vs FV0 %v: asymmetry lost", fit.FV1, fit.FV0)
	}
	if math.Abs(fit.P-0.3) > 0.08 {
		t.Fatalf("fit P = %v, want ~0.3", fit.P)
	}
}

func TestFitModel1RecoversBitlineStructure(t *testing.T) {
	truth := &Model{Kind: Model1, Seed: 17, RowBits: 256,
		PB: make([]float64, Groups), FB: make([]float64, Groups)}
	for g := range truth.PB {
		if g%8 == 0 {
			truth.PB[g] = 0.5
			truth.FB[g] = 0.4
		} else {
			truth.PB[g] = 0.01
			truth.FB[g] = 0.05
		}
	}
	prof := synthesizeProfile(truth, 64, 256, 8, 3)
	fit := FitModel1(prof, 17)
	// Strong groups should fit much higher P·F than weak groups.
	strong := fit.PB[0] * fit.FB[0]
	weak := fit.PB[1] * fit.FB[1]
	if strong < weak*10 {
		t.Fatalf("bitline structure lost: strong %v weak %v", strong, weak)
	}
}

func TestSelectPrefersCorrectModel(t *testing.T) {
	cases := []struct {
		name  string
		truth *Model
		want  Kind
	}{
		{
			name:  "uniform",
			truth: &Model{Kind: Model0, Seed: 21, RowBits: 256, P: 0.15, FA: 0.25},
			want:  Model0,
		},
		{
			name: "bitline",
			truth: func() *Model {
				m := &Model{Kind: Model1, Seed: 23, RowBits: 256, PB: make([]float64, Groups), FB: make([]float64, Groups)}
				for g := range m.PB {
					if g < 8 {
						m.PB[g] = 0.6
						m.FB[g] = 0.5
					} else {
						m.PB[g] = 0.005
						m.FB[g] = 0.02
					}
				}
				return m
			}(),
			want: Model1,
		},
		{
			name: "wordline",
			truth: func() *Model {
				m := &Model{Kind: Model2, Seed: 25, RowBits: 256, PW: make([]float64, Groups), FW: make([]float64, Groups)}
				for g := range m.PW {
					if g < 8 {
						m.PW[g] = 0.6
						m.FW[g] = 0.5
					} else {
						m.PW[g] = 0.005
						m.FW[g] = 0.02
					}
				}
				return m
			}(),
			want: Model2,
		},
		{
			name:  "datadependent",
			truth: &Model{Kind: Model3, Seed: 27, RowBits: 256, P: 0.3, FV1: 0.5, FV0: 0.01},
			want:  Model3,
		},
	}
	for _, c := range cases {
		prof := synthesizeProfile(c.truth, 128, 256, 8, 4)
		got := Select(prof, c.truth.Seed)
		if got.Kind != c.want {
			t.Errorf("%s: selected %v, want %v", c.name, got.Kind, c.want)
		}
	}
}

func TestSelectTiePrefersModel0(t *testing.T) {
	// A uniform truth fits all models about equally well (Models 1-3
	// degenerate to uniform); the paper's rule picks Model 0.
	truth := &Model{Kind: Model0, Seed: 31, RowBits: 256, P: 0.2, FA: 0.2}
	prof := synthesizeProfile(truth, 96, 256, 6, 5)
	got := Select(prof, 31)
	if got.Kind != Model0 {
		t.Fatalf("tie broke to %v, want Model 0", got.Kind)
	}
}

func TestMeasuredBER(t *testing.T) {
	p := &Profile{RowBits: 8, Cells: []CellObs{
		{OnesReads: 50, OnesFlips: 5, ZerosReads: 50, ZerosFlips: 0},
	}}
	if got := p.MeasuredBER(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("MeasuredBER = %v", got)
	}
	empty := &Profile{}
	if empty.MeasuredBER() != 0 {
		t.Fatal("empty profile BER should be 0")
	}
}

func TestFitEmptyProfile(t *testing.T) {
	p := &Profile{RowBits: 64}
	for _, m := range FitAll(p, 1) {
		if m.AggregateBER() != 0 {
			t.Fatalf("%v fit nonzero BER on empty profile", m.Kind)
		}
	}
}

func TestFitErrorFreeProfile(t *testing.T) {
	truth := &Model{Kind: Model0, Seed: 33, RowBits: 64, P: 0, FA: 0}
	prof := synthesizeProfile(truth, 16, 64, 4, 6)
	m := FitModel0(prof, 33)
	if m.AggregateBER() != 0 {
		t.Fatalf("error-free profile fit BER %v", m.AggregateBER())
	}
}

// TestLogLikelihoodMatchesPerCellSum compares LogLikelihood, which scores
// each class of cells once, with the plain sum of every cell's term in cell
// order: not within a tolerance but as the same float64, for the fit of
// every kind and for the ground truth, on data from every kind.
func TestLogLikelihoodMatchesPerCellSum(t *testing.T) {
	for _, truth := range kindModels(256) {
		prof := synthesizeProfile(truth, 96, 256, 8, 40+uint64(truth.Kind))
		for _, m := range append(FitAll(prof, truth.Seed), truth) {
			var want float64
			prof.eachCell(func(row, bitline int, c CellObs) {
				want += m.cellLogLikelihood(row, bitline, c)
			})
			if got := m.LogLikelihood(prof); got != want {
				t.Errorf("truth %v scored by %v: LogLikelihood %v, per-cell sum %v", truth.Kind, m.Kind, got, want)
			}
		}
	}
}

// TestSelectWorkerInvariant runs the fit and selection fan-outs at several
// worker counts and demands the same model, parameter for parameter.
func TestSelectWorkerInvariant(t *testing.T) {
	prev := parallel.Workers()
	t.Cleanup(func() { parallel.SetWorkers(prev) })
	for _, truth := range kindModels(256) {
		prof := synthesizeProfile(truth, 96, 256, 8, 50+uint64(truth.Kind))
		var want *Model
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			got := Select(prof, truth.Seed)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("truth %v: %d workers selected %+v, one worker %+v", truth.Kind, workers, got, want)
			}
		}
	}
}
