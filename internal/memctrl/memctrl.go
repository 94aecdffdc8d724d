// Package memctrl models the memory controller support EDEN requires (§5):
// the bounding logic that corrects implausible values coming back from
// approximate DRAM, and the partition metadata tables that let the
// controller apply per-partition voltage and timing parameters.
package memctrl

import (
	"math"
	"sort"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Policy selects how out-of-bounds values are corrected. The paper finds
// zeroing consistently beats saturating (§3.2); both are implemented so the
// ablation can be reproduced.
type Policy int

// Correction policies.
const (
	Zero Policy = iota
	Saturate
	// Off disables correction entirely (the paper's accuracy-collapse
	// baseline).
	Off
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Zero:
		return "zero"
	case Saturate:
		return "saturate"
	case Off:
		return "off"
	default:
		return "unknown"
	}
}

// Bounds is a per-data-type plausible value range, computed while training
// the baseline DNN on reliable DRAM (§3.2).
type Bounds struct {
	Lo, Hi float32
}

// FromTensor derives bounds from a clean tensor with a safety margin:
// the observed range stretched by the multiplicative margin.
func FromTensor(t *tensor.Tensor, margin float32) Bounds {
	m := quant.MaxAbs(t.Data) * margin
	if m == 0 {
		m = margin
	}
	return Bounds{Lo: -m, Hi: m}
}

// BoundingLogic is the 1-cycle hardware block (§5) that compares every
// loaded value against its data type's bounds and corrects out-of-range
// values. CorrectedLatencyCycles is the per-load latency it adds.
type BoundingLogic struct {
	Policy Policy
	// Corrections counts how many values were corrected, for diagnostics.
	Corrections uint64
}

// CorrectedLatencyCycles is the latency the bounding logic adds to each
// load (§5 reports one cycle).
const CorrectedLatencyCycles = 1

// CorrectValue applies the policy to a single value.
func (b *BoundingLogic) CorrectValue(v float32, bounds Bounds) float32 {
	if b.Policy == Off {
		return v
	}
	if !(v < bounds.Lo || v > bounds.Hi || isNaN32(v)) {
		return v
	}
	b.Corrections++
	switch b.Policy {
	case Saturate:
		if isNaN32(v) {
			return 0
		}
		if v < bounds.Lo {
			return bounds.Lo
		}
		return bounds.Hi
	default: // Zero
		return 0
	}
}

func isNaN32(v float32) bool { return v != v }

// CorrectQTensor applies the policy to a quantized tensor in place and
// returns how many codes it rewrote; Corrections grows by the number of
// implausible values, rewritten or not. Integer precisions are bounded in
// code space (correctCodes); FP32 images, and integer images whose scale is
// not a positive finite number, are bounded value by value.
func (b *BoundingLogic) CorrectQTensor(q *quant.QTensor, bounds Bounds) int {
	if b.Policy == Off {
		return 0
	}
	if q.Prec != quant.FP32 && q.Scale > 0 && q.Scale <= math.MaxFloat32 {
		return b.correctCodes(q, bounds)
	}
	return b.correctValues(q, bounds)
}

// correctValues is the definition of CorrectQTensor: decode each value,
// bound it, re-encode the ones the policy changed.
func (b *BoundingLogic) correctValues(q *quant.QTensor, bounds Bounds) int {
	n := 0
	for i := 0; i < q.NumValues(); i++ {
		v := q.Value(i)
		c := b.CorrectValue(v, bounds)
		if c != v || isNaN32(v) {
			q.SetValue(i, c)
			n++
		}
	}
	return n
}

// correctCodes is correctValues for an integer image with a positive finite
// scale, done on the codes. Decoding — float32(code)·scale — is then
// monotone in the code and never NaN, so the codes that decode below
// bounds.Lo are exactly those under some code first, the codes that decode
// above bounds.Hi exactly those over some code last, and what the policy
// writes over either kind is one constant per tensor. Both cut-offs come
// from evaluating the decode expression itself, so no rounding argument
// about Lo/scale is involved. When the whole code range decodes inside the
// bounds nothing can be implausible and the image is not read at all: the
// case of every calibrated tensor, whose bounds are 1.5× the clean range
// while no flipped code decodes beyond 2^(b-1)·scale ≈ 1.008× of it (int8).
func (b *BoundingLogic) correctCodes(q *quant.QTensor, bounds Bounds) int {
	bits := q.Prec.Bits()
	cmin, cmax := -1<<(bits-1), 1<<(bits-1)-1
	decode := func(code int) float32 { return float32(int32(code)) * q.Scale }
	if !(decode(cmin) < bounds.Lo) && !(decode(cmax) > bounds.Hi) {
		return 0
	}
	// first is the lowest code not below Lo, last the highest not above Hi
	// (cmax+1 and cmin-1 when there is none).
	first := cmin + sort.Search(cmax-cmin+1, func(k int) bool { return !(decode(cmin+k) < bounds.Lo) })
	last := cmin - 1 + sort.Search(cmax-cmin+1, func(k int) bool { return decode(cmin+k) > bounds.Hi })
	under, over := q.Encode(0), q.Encode(0)
	if b.Policy == Saturate {
		under, over = q.Encode(bounds.Lo), q.Encode(bounds.Hi)
	}
	shift := 32 - bits
	n := 0
	for i, stored := range q.Codes {
		code := int(int32(stored<<shift) >> shift)
		fix := under
		switch {
		case code < first:
		case code > last:
			fix = over
		default:
			continue
		}
		b.Corrections++
		// An implausible zero under the zeroing policy is already what the
		// policy writes; like correctValues, leave it and do not count it.
		if code != 0 || b.Policy == Saturate {
			q.Codes[i] = fix
			n++
		}
	}
	return n
}
