package errormodel

import (
	"math"

	"repro/internal/parallel"
)

// CellObs is a per-cell characterization record: how many times the cell
// was read holding each polarity, and how many of those reads flipped. The
// counters are 32 bits wide so that a million-cell profile stays at 16 MB.
type CellObs struct {
	OnesReads, ZerosReads uint32
	OnesFlips, ZerosFlips uint32
}

// flips and reads total the record over both polarities.
func (c CellObs) flips() int { return int(c.OnesFlips) + int(c.ZerosFlips) }
func (c CellObs) reads() int { return int(c.OnesReads) + int(c.ZerosReads) }

// Profile is a characterization dataset for one operating point, produced
// by the softmc package from a (simulated) module: the cells of the first
// len(Cells)/RowBits rows, row-major, so that Cells[i] is the cell at row
// i/RowBits on bitline i%RowBits.
type Profile struct {
	RowBits int
	Cells   []CellObs
}

// MeasuredBER returns the profile's aggregate observed bit error rate.
func (p *Profile) MeasuredBER() float64 {
	var flips, reads int
	for _, c := range p.Cells {
		flips += c.flips()
		reads += c.reads()
	}
	if reads == 0 {
		return 0
	}
	return float64(flips) / float64(reads)
}

// eachCell calls f on every cell with its coordinates, in Cells order.
func (p *Profile) eachCell(f func(row, bitline int, c CellObs)) {
	row, bitline := 0, 0
	for _, c := range p.Cells {
		f(row, bitline, c)
		if bitline++; bitline == p.RowBits {
			row, bitline = row+1, 0
		}
	}
}

// groupObs totals the observations of one population of cells: the input
// of fitWeakRate.
type groupObs struct{ flips, reads, cells, ever int }

func (a *groupObs) add(c CellObs) {
	f := c.flips()
	a.flips += f
	a.reads += c.reads()
	a.cells++
	if f > 0 {
		a.ever++
	}
}

func (a *groupObs) fit() (P, F float64) { return fitWeakRate(a.flips, a.reads, a.cells, a.ever) }

// fitWeakRate estimates (P, F) for a population of cells by an EM-style
// iteration on the two-component mixture "weak with flip rate F" versus
// "strong, never flips". flips is total flips, reads total reads, cells the
// population size, everFlipped the number of cells with at least one flip.
func fitWeakRate(flips, reads, cells, everFlipped int) (P, F float64) {
	if cells == 0 || reads == 0 || flips == 0 {
		return 0, 0
	}
	readsPerCell := float64(reads) / float64(cells)
	// Initialize: weak cells are those that flipped at least once.
	P = float64(everFlipped) / float64(cells)
	if P <= 0 {
		return 0, 0
	}
	for iter := 0; iter < 20; iter++ {
		F = float64(flips) / (P * float64(cells) * readsPerCell)
		if F > 1 {
			F = 1
		}
		// A weak cell evades detection with probability (1-F)^reads;
		// correct the weak-cell share for the unseen ones.
		missProb := math.Pow(1-F, readsPerCell)
		if missProb >= 0.999999 {
			break
		}
		newP := float64(everFlipped) / float64(cells) / (1 - missProb)
		if newP > 1 {
			newP = 1
		}
		if math.Abs(newP-P) < 1e-9 {
			P = newP
			break
		}
		P = newP
	}
	return P, F
}

// FitModel0 fits the uniform-random model.
func FitModel0(p *Profile, seed uint64) *Model {
	var a groupObs
	for _, c := range p.Cells {
		a.add(c)
	}
	P, F := a.fit()
	return &Model{Kind: Model0, Seed: seed, RowBits: p.RowBits, P: P, FA: F}
}

// FitModel1 fits the bitline-structured model.
func FitModel1(p *Profile, seed uint64) *Model {
	m := &Model{Kind: Model1, Seed: seed, RowBits: p.RowBits,
		PB: make([]float64, Groups), FB: make([]float64, Groups)}
	var groups [Groups]groupObs
	p.eachCell(func(_, bitline int, c CellObs) {
		groups[bitline%Groups].add(c)
	})
	for g := range groups {
		m.PB[g], m.FB[g] = groups[g].fit()
	}
	return m
}

// FitModel2 fits the wordline-structured model.
func FitModel2(p *Profile, seed uint64) *Model {
	m := &Model{Kind: Model2, Seed: seed, RowBits: p.RowBits,
		PW: make([]float64, Groups), FW: make([]float64, Groups)}
	var groups [Groups]groupObs
	p.eachCell(func(row, _ int, c CellObs) {
		groups[row%Groups].add(c)
	})
	for g := range groups {
		m.PW[g], m.FW[g] = groups[g].fit()
	}
	return m
}

// FitModel3 fits the data-dependent model.
func FitModel3(p *Profile, seed uint64) *Model {
	var f1, r1, f0, r0, ever int
	for _, c := range p.Cells {
		f1 += int(c.OnesFlips)
		r1 += int(c.OnesReads)
		f0 += int(c.ZerosFlips)
		r0 += int(c.ZerosReads)
		if c.flips() > 0 {
			ever++
		}
	}
	P, _ := fitWeakRate(f1+f0, r1+r0, len(p.Cells), ever)
	m := &Model{Kind: Model3, Seed: seed, RowBits: p.RowBits, P: P}
	if P > 0 {
		// Expected flips from ones = P · onesReads · FV1, so invert.
		if r1 > 0 {
			m.FV1 = math.Min(1, float64(f1)/(P*float64(r1)))
		}
		if r0 > 0 {
			m.FV0 = math.Min(1, float64(f0)/(P*float64(r0)))
		}
	}
	return m
}

// FitAll fits every model kind to the profile. The four fits read the
// profile independently and fan out across the worker pool, landing in
// kind-indexed slots so the result is identical to fitting serially.
func FitAll(p *Profile, seed uint64) []*Model {
	fits := []func(*Profile, uint64) *Model{FitModel0, FitModel1, FitModel2, FitModel3}
	out := make([]*Model, len(fits))
	parallel.ForEach(len(fits), func(i int) {
		out[i] = fits[i](p, seed)
	})
	return out
}

// LogLikelihood scores how well the model explains the profile. Each cell
// contributes log of the mixture probability of its observed flip counts:
// weak with the model's flip rates, or strong and flip-free.
//
// A cell's term depends on its coordinates only through its parameter group
// and otherwise on its four counts, and a profile holds a few hundred such
// classes among its cells, so a term is looked up before it is computed:
// in a direct-mapped table, where a class that collides with another just
// displaces it and is computed again on return. The terms are still added
// cell by cell in Cells order: the sum is the float64 the per-cell
// evaluation produces, not a regrouping of it.
func (m *Model) LogLikelihood(p *Profile) float64 {
	type entry struct {
		group int
		obs   CellObs
		term  float64
		set   bool
	}
	const slotBits = 12
	memo := make([]entry, 1<<slotBits)
	var total float64
	p.eachCell(func(row, bitline int, c CellObs) {
		g := m.group(row, bitline)
		h := uint64(g)*0x9e3779b97f4a7c15 ^ uint64(c.OnesFlips)*0xbf58476d1ce4e5b9 ^
			uint64(c.ZerosFlips)*0x94d049bb133111eb ^ (uint64(c.OnesReads)<<32|uint64(c.ZerosReads))*0xd6e8feb86659fd93
		e := &memo[h>>(64-slotBits)]
		if !e.set || e.group != g || e.obs != c {
			*e = entry{g, c, m.cellLogLikelihood(row, bitline, c), true}
		}
		total += e.term
	})
	return total
}

// group returns the index of the parameter group the cell at (row, bitline)
// draws its weak probability and flip rates from.
func (m *Model) group(row, bitline int) int {
	switch m.Kind {
	case Model1:
		return bitline % Groups
	case Model2:
		return row % Groups
	}
	return 0
}

// cellLogLikelihood is one cell's term of LogLikelihood.
func (m *Model) cellLogLikelihood(row, bitline int, c CellObs) float64 {
	pw := m.weakProb(row, bitline)
	var f1, f0 float64
	switch m.Kind {
	case Model3:
		f1, f0 = m.FV1, m.FV0
	default:
		f1 = m.flipRate(row, bitline, true)
		f0 = f1
	}
	lWeak := logBinom(int(c.OnesFlips), int(c.OnesReads), f1) + logBinom(int(c.ZerosFlips), int(c.ZerosReads), f0)
	var lik float64
	if c.OnesFlips == 0 && c.ZerosFlips == 0 {
		lik = pw*math.Exp(lWeak) + (1 - pw)
	} else {
		lik = pw * math.Exp(lWeak)
	}
	if lik < 1e-300 {
		lik = 1e-300
	}
	return math.Log(lik)
}

// logBinom returns log P(k flips in n reads | rate f), ignoring the
// constant binomial coefficient (identical across models for a fixed
// profile, so it cancels in comparisons).
func logBinom(k, n int, f float64) float64 {
	if n == 0 {
		return 0
	}
	if f <= 0 {
		if k == 0 {
			return 0
		}
		return -1e9
	}
	if f >= 1 {
		if k == n {
			return 0
		}
		return -1e9
	}
	return float64(k)*math.Log(f) + float64(n-k)*math.Log(1-f)
}

// Select fits all models and returns the one most likely to have produced
// the profile. Following the paper's rule, when another model's likelihood
// is within tolerance of Model 0's, Model 0 is preferred because it is the
// cheapest to inject (§4, Model Selection).
func Select(p *Profile, seed uint64) *Model {
	models := FitAll(p, seed)
	liks := make([]float64, len(models))
	parallel.ForEach(len(models), func(i int) {
		liks[i] = models[i].LogLikelihood(p)
	})
	best := 0
	for i := range liks {
		if liks[i] > liks[best] {
			best = i
		}
	}
	// Preference for Model 0 on near-ties: "very similar probability"
	// interpreted as within 0.5% of the best log-likelihood magnitude.
	tol := 0.005 * math.Abs(liks[best])
	if liks[0] >= liks[best]-tol {
		return models[0]
	}
	return models[best]
}
