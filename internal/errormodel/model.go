// Package errormodel implements the paper's four probabilistic DRAM error
// models (§4): uniform-random (Model 0), bitline-structured (Model 1),
// wordline-structured (Model 2) and data-dependent (Model 3). It fits model
// parameters to cell-level observations from DRAM characterization by
// maximum likelihood, selects the best-fitting model, and injects
// model-distributed bit errors into quantized tensors for EDEN offloading —
// the software path that replaces device-in-the-loop error injection.
package errormodel

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/quant"
)

// Kind identifies one of the paper's four error models.
type Kind int

// The four error models of §4.
const (
	Model0 Kind = iota // uniform random over the bank
	Model1             // vertical (bitline) structure
	Model2             // horizontal (wordline) structure
	Model3             // data-dependent uniform random
)

// String returns the paper's name for the model.
func (k Kind) String() string {
	switch k {
	case Model0:
		return "Error Model 0"
	case Model1:
		return "Error Model 1"
	case Model2:
		return "Error Model 2"
	case Model3:
		return "Error Model 3"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Groups is the number of bitline/wordline buckets Models 1 and 2 use.
// Real modules have thousands of bitlines; bucketing keeps the parameter
// count manageable exactly as the paper's PB/FB formulation does.
const Groups = 64

// Model is a fitted probabilistic error model. A cell is "weak" with a
// (possibly group- or data-dependent) probability P; a weak cell flips on
// each access with probability F. Weak-cell identity is deterministic given
// Seed, which is how the model carries the *location* information the paper
// requires (§4).
type Model struct {
	Kind    Kind
	Seed    uint64
	RowBits int // bitline count per row used for coordinate mapping

	// Model 0 and Model 3 parameters.
	P  float64
	FA float64
	// Model 3 data-dependent flip rates (replace FA).
	FV1 float64
	FV0 float64
	// Model 1 per-bitline-group parameters.
	PB []float64
	FB []float64
	// Model 2 per-wordline-group parameters.
	PW []float64
	FW []float64

	// weak memoizes weak-cell lists (see SharedWeakPositions). It sits
	// behind a pointer so that ScaledTo copies share it.
	weak *weakLists
}

// Uniform returns a Model-0 error model in which every cell is weak and
// flips with probability ber on each access — the uniform random model used
// wherever no fitted module profile is available (raw-BER serving, tests,
// ablations). RowBits matches the default device geometry so MSB alignment
// behaves as on the modelled module.
func Uniform(ber float64) *Model {
	return &Model{Kind: Model0, Seed: 1, RowBits: 16384, P: 1, FA: ber}
}

// weakProb returns the probability that the cell at (row, bitline) is weak.
func (m *Model) weakProb(row, bitline int) float64 {
	switch m.Kind {
	case Model0, Model3:
		return m.P
	case Model1:
		return m.PB[bitline%Groups]
	case Model2:
		return m.PW[row%Groups]
	}
	return 0
}

// flipRate returns a weak cell's per-access flip probability at
// (row, bitline) holding the given stored bit.
func (m *Model) flipRate(row, bitline int, stored bool) float64 {
	switch m.Kind {
	case Model0:
		return m.FA
	case Model1:
		return m.FB[bitline%Groups]
	case Model2:
		return m.FW[row%Groups]
	case Model3:
		if stored {
			return m.FV1
		}
		return m.FV0
	}
	return 0
}

// IsWeak reports whether the cell at (row, bitline) is weak under this
// model's deterministic weak-cell map.
func (m *Model) IsWeak(row, bitline int) bool {
	u := uniformHash(m.Seed, uint64(row), uint64(bitline))
	return u < m.weakProb(row, bitline)
}

// AggregateBER returns the expected bit error rate over uniformly
// distributed data and cell positions.
func (m *Model) AggregateBER() float64 {
	switch m.Kind {
	case Model0:
		return m.P * m.FA
	case Model3:
		return m.P * (m.FV1 + m.FV0) / 2
	case Model1:
		var s float64
		for g := 0; g < Groups; g++ {
			s += m.PB[g] * m.FB[g]
		}
		return s / Groups
	case Model2:
		var s float64
		for g := 0; g < Groups; g++ {
			s += m.PW[g] * m.FW[g]
		}
		return s / Groups
	}
	return 0
}

// ScaledTo returns a copy of the model whose flip rates are scaled so the
// aggregate BER equals target. EDEN's characterization sweeps BER through
// this knob while preserving the model's spatial and data structure.
func (m *Model) ScaledTo(target float64) *Model {
	cur := m.AggregateBER()
	c := m.clone()
	if cur <= 0 {
		// Degenerate fit (error-free profile): fall back to a uniform
		// model at the target rate so sweeps still work. Its weak cells are
		// not m's, so it starts its own lists.
		c.Kind = Model0
		c.P = 1
		c.FA = target
		c.weak = nil
		return c
	}
	scale := target / cur
	clampScale := func(f float64) float64 {
		v := f * scale
		if v > 1 {
			return 1
		}
		return v
	}
	c.FA = clampScale(c.FA)
	c.FV1 = clampScale(c.FV1)
	c.FV0 = clampScale(c.FV0)
	for i := range c.FB {
		c.FB[i] = clampScale(c.FB[i])
	}
	for i := range c.FW {
		c.FW[i] = clampScale(c.FW[i])
	}
	return c
}

func (m *Model) clone() *Model {
	m.weakLists() // exist before the copy, so that the copy shares them
	c := *m
	c.PB = append([]float64(nil), m.PB...)
	c.FB = append([]float64(nil), m.FB...)
	c.PW = append([]float64(nil), m.PW...)
	c.FW = append([]float64(nil), m.FW...)
	return &c
}

// uniformHash maps (seed, a, b) to a uniform float64 in [0, 1).
func uniformHash(seed, a, b uint64) float64 {
	return float64(hashMix(seed^a*hashMulA^b*hashMulB)>>11) / float64(1<<53)
}

// hashMulA and hashMulB spread uniformHash's two coordinates before mixing.
const (
	hashMulA = 0x9e3779b97f4a7c15
	hashMulB = 0xbf58476d1ce4e5b9
)

// hashMix is the SplitMix64 finalizer.
func hashMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Injector applies a model's error distribution to quantized tensors,
// emulating their residence in approximate DRAM. Each Inject call is one
// independent "read" of the data (errors are transient); NextPass advances
// the transient draw.
type Injector struct {
	Model *Model
	// BaseBit positions the tensor in the module's address space, so that
	// different tensors land on different rows (and characterization can
	// co-locate tensors with partitions).
	pass uint64
}

// NewInjector returns an injector for the model.
func NewInjector(m *Model) *Injector {
	return &Injector{Model: m}
}

// NextPass advances the transient error draw; subsequent Inject calls see
// an independent error pattern (with the same weak-cell locations).
func (in *Injector) NextPass() { in.pass++ }

// SetPass jumps the transient error draw to an absolute pass index, letting
// callers that construct fresh injectors per tensor stay aligned with a
// shared pass counter.
func (in *Injector) SetPass(pass uint64) { in.pass = pass }

// Inject flips bits of q in place according to the model, as if q's packed
// image occupied DRAM starting at bit offset baseBit. The layout matches
// quant.Pack: value i's bit k lives at absolute bit baseBit + i*bits + k,
// rows are RowBits wide, and the bit's bitline is its offset within the
// row. MSB alignment therefore emerges naturally when RowBits is a
// multiple of the value width, mirroring the paper's observation that
// aligned MSBs share bitlines (§6.3).
func (in *Injector) Inject(q *quant.QTensor, baseBit int) int {
	return in.InjectWeak(q, baseBit, in.WeakPositions(q.NumValues()*q.Prec.Bits(), baseBit))
}

// WeakPositions enumerates, ascending, the weak-cell bit offsets (relative
// to baseBit) within a span of nBits: the rel for which
// IsWeak((baseBit+rel)/RowBits, (baseBit+rel)%RowBits). The list is a pure
// function of the model's Kind, Seed, RowBits and P/PB/PW and of the two
// arguments — not of the flip rates, the pass or the data — so the list of a
// shorter span is a prefix of a longer one's, and it holds across passes
// and across ScaledTo copies of the model; SharedWeakPositions is this scan
// memoized on the model.
func (in *Injector) WeakPositions(nBits, baseBit int) []int32 {
	return in.Model.appendWeak(nil, 0, nBits, baseBit)
}

// appendWeak appends to dst, ascending, the offsets rel in [from, to) whose
// cell at bit baseBit+rel is weak: IsWeak over the span, with the hash's row
// and bitline terms carried from cell to cell and the float comparison
// uniform < P turned into the integer one it is exactly equal to.
func (m *Model) appendWeak(dst []int32, from, to, baseBit int) []int32 {
	// thresh[g] is the weak probability of parameter group g in the hash's
	// own units.
	var thresh [Groups]uint64
	for g := range thresh {
		thresh[g] = weakThreshold(m.weakProb(g, g))
	}
	pos := baseBit + from
	row, bitline := pos/m.RowBits, pos%m.RowBits
	for rel := from; rel < to; row, bitline = row+1, 0 {
		rowTerm := m.Seed ^ uint64(row)*hashMulA
		bitTerm := uint64(bitline) * hashMulB
		for ; bitline < m.RowBits && rel < to; bitline, rel = bitline+1, rel+1 {
			if hashMix(rowTerm^bitTerm)>>11 < thresh[m.group(row, bitline)] {
				dst = append(dst, int32(rel))
			}
			bitTerm += hashMulB
		}
	}
	return dst
}

// weakThreshold returns the t for which h>>11 < t exactly when the uniform
// draw float64(h>>11)/2^53 is below p: both sides of that comparison scale
// by 2^53 without rounding, and an integer is below a real exactly when it
// is below its ceiling.
func weakThreshold(p float64) uint64 {
	t := math.Ceil(p * (1 << 53))
	switch {
	case !(t > 0): // p ≤ 0 or NaN: no draw is below it
		return 0
	case t >= 1<<53:
		return 1 << 53
	}
	return uint64(t)
}

// weakLists holds, per span offset, the longest weak-cell list any caller
// has asked a fitted model for.
type weakLists struct {
	mu sync.Mutex
	at map[int]weakSpan // by baseBit
}

// weakSpan is WeakPositions(nBits, baseBit) for the map key baseBit. A list
// is replaced when a longer span is asked for, never written in place, so
// the slices handed out stay valid without the lock.
type weakSpan struct {
	nBits int
	list  []int32
}

// weakInit guards the creation of every Model.weak: models come from fits,
// literals and JSON decoding, so the lists are made on first use.
var weakInit sync.Mutex

func (m *Model) weakLists() *weakLists {
	weakInit.Lock()
	defer weakInit.Unlock()
	if m.weak == nil {
		m.weak = &weakLists{at: map[int]weakSpan{}}
	}
	return m.weak
}

// SharedWeakPositions returns what Injector.WeakPositions(nBits, baseBit)
// returns, scanned once per fitted model: the list is a function of the
// model's kind, seed, RowBits and P/PB/PW and of the span alone — not of
// the flip rates — so m, every ScaledTo copy of it and every corruptor
// built on either share one list per offset, and a span shorter than one
// already scanned is served by cutting that list. Safe for concurrent use.
// The parameters named above must not change once the model is in use; the
// returned slice must not be written.
func (m *Model) SharedWeakPositions(nBits, baseBit int) []int32 {
	w := m.weakLists()
	w.mu.Lock()
	s := w.at[baseBit]
	if s.nBits < nBits {
		s = weakSpan{nBits, m.appendWeak(s.list[:len(s.list):len(s.list)], s.nBits, nBits, baseBit)}
		w.at[baseBit] = s
	}
	w.mu.Unlock()
	return s.list[:sort.Search(len(s.list), func(i int) bool { return int(s.list[i]) >= nBits })]
}

// InjectWeak flips bits of q using a precomputed weak-position list from
// WeakPositions with the same baseBit. It is the fast path of Inject.
//
// Model 0 takes a geometric-skip shortcut: its flip rate is one constant for
// every weak cell regardless of position or stored value, so instead of
// drawing one hash per weak cell the injector samples the gaps between flips
// from the matching geometric distribution and touches only the cells that
// actually flip — O(flips) instead of O(weak cells). The flip pattern is an
// exact Bernoulli(FA) process over the weak list, deterministically seeded
// by (model seed, baseBit, pass), which is what eden.Cloner's determinism
// contract requires; the draws differ from the per-cell path, so the two
// strategies are statistically interchangeable but not bit-for-bit equal.
func (in *Injector) InjectWeak(q *quant.QTensor, baseBit int, weak []int32) int {
	bits := q.Prec.Bits()
	m := in.Model
	if m.Kind == Model0 {
		return in.geomFlips(len(weak), m.FA, baseBit, func(j int) {
			rel := int(weak[j])
			q.FlipBit(rel/bits, rel%bits)
		})
	}
	flips := 0
	model3 := m.Kind == Model3
	for _, rel := range weak {
		i := int(rel) / bits
		k := int(rel) % bits
		pos := baseBit + int(rel)
		// Only the data-dependent model reads the stored bit; skipping the
		// packed-bit extraction for Models 1/2 leaves their draws untouched.
		stored := model3 && q.Bit(i, k)
		p := m.flipRate(pos/m.RowBits, pos%m.RowBits, stored)
		if p <= 0 {
			continue
		}
		u := uniformHash(m.Seed^0x7261B5, in.pass*0x9E37+uint64(pos), uint64(pos))
		if u < p {
			q.FlipBit(i, k)
			flips++
		}
	}
	return flips
}

// InjectUniform flips bits of q as if every cell in its nBits-bit span were
// weak with flip rate p — the Model-0 case with P = 1, which is what raw-BER
// serving and every Uniform(ber) corruptor run. It skips materializing the
// weak-position list entirely (for an all-weak span that list is just
// 0..nBits-1) and walks the span by geometric gaps, so cost scales with the
// expected flip count, not the tensor size.
func (in *Injector) InjectUniform(q *quant.QTensor, baseBit int) int {
	bits := q.Prec.Bits()
	return in.geomFlips(q.NumBits(), in.Model.FA, baseBit, func(rel int) {
		q.FlipBit(rel/bits, rel%bits)
	})
}

// geomFlips visits each of n virtual cells with probability p by sampling
// inter-flip gaps from Geometric(p): P(gap ≥ k) = (1-p)^k, so the resulting
// flip set is an exact iid Bernoulli(p) draw over the n cells. The gap
// stream is a pure function of (model seed, baseBit, pass, draw index),
// giving the same determinism guarantees as the per-cell hash.
func (in *Injector) geomFlips(n int, p float64, baseBit int, flip func(idx int)) int {
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			flip(i)
		}
		return n
	}
	// Fold baseBit through the finalizer so tensors at different offsets
	// draw from disjoint streams even when their draw indices coincide.
	seed := in.Model.Seed ^ 0x47454F4D ^ hashMix(uint64(baseBit))
	lnq := math.Log1p(-p)
	flips, idx := 0, 0
	for t := uint64(0); ; t++ {
		u := uniformHash(seed, in.pass, t)
		// U = 1-u ∈ (0,1]; gap = floor(ln U / ln(1-p)) is Geometric(p).
		gap := math.Log1p(-u) / lnq
		if gap >= float64(n-idx) {
			return flips
		}
		idx += int(gap)
		flip(idx)
		flips++
		idx++
		if idx >= n {
			return flips
		}
	}
}
