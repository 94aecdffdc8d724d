// Package quant implements the symmetric linear quantization scheme used by
// the paper (§2.1, Table 2) and the bit-level value codecs that approximate
// DRAM error injection operates on. A quantized tensor stores each value as
// a two's-complement code of 4, 8 or 16 bits; FP32 tensors store raw IEEE-754
// bit patterns. Bit flips are applied directly to these stored
// representations, exactly as a flipped DRAM cell would corrupt them.
//
// # Scalar is specification
//
// Quantize, Dequantize and MaxAbs stream over three primitives (kernels.go)
// whose plain Go loops define the result. On amd64 with AVX2 an assembly
// body runs instead, one value per lane, and is held to the loops bit for
// bit by tests and a fuzz target; every other build runs the loops
// themselves. Nothing selects between the two but the CPU: no flag,
// environment variable or build tag. So codes, and everything computed from
// them — artifacts, served predictions — are the same on any host.
//
// # NaN and Inf
//
// The definition is total, so that holds for malformed tensors too. The
// max-abs that fixes the scale skips NaNs and treats ±Inf as a maximum like
// any other (the scale is then +Inf: finite values encode to 0). A value
// whose quotient by the scale is NaN, or is 2^31 or more, has no integer
// code; it encodes to the lowest code, −2^(b−1) — what amd64's conversion
// instruction has always produced here, where Go promises nothing and
// arm64 would answer 0. Quotients below −2^31 clamp to the same code in the
// ordinary way. An all-zero tensor has scale 1; a tensor whose max-abs is so
// small that max-abs/(2^(b−1)−1) underflows has scale 0, which makes every
// quotient NaN or ±Inf, hence every code the lowest.
package quant

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Precision is a numeric storage format for DNN data.
type Precision int

// The four precisions evaluated in the paper.
const (
	FP32 Precision = iota
	Int16
	Int8
	Int4
)

// Bits returns the number of stored bits per value.
func (p Precision) Bits() int {
	switch p {
	case FP32:
		return 32
	case Int16:
		return 16
	case Int8:
		return 8
	case Int4:
		return 4
	default:
		panic(fmt.Sprintf("quant: unknown precision %d", int(p)))
	}
}

// String returns the paper's name for the precision.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32"
	case Int16:
		return "int16"
	case Int8:
		return "int8"
	case Int4:
		return "int4"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Precisions lists all supported precisions from widest to narrowest.
var Precisions = []Precision{FP32, Int16, Int8, Int4}

// ParsePrecision is the inverse of String; the flag spelling "fp32" is
// accepted beside "FP32".
func ParsePrecision(s string) (Precision, error) {
	if s == "fp32" {
		return FP32, nil
	}
	for _, p := range Precisions {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("quant: unknown precision %q", s)
}

// QTensor is a tensor quantized to a given precision. Codes holds one entry
// per value; only the low Bits() bits are meaningful and they hold the
// two's-complement quantized code (or the raw float bits for FP32).
type QTensor struct {
	Prec  Precision
	Shape tensor.Shape
	Scale float32 // dequantization step; unused (1.0) for FP32
	Codes []uint32
}

// codeRange returns the two's-complement code interval of b-bit symmetric
// quantization, [-2^(b-1), 2^(b-1)-1], and the mask of the stored bits.
func codeRange(b int) (lo, hi int32, mask uint32) {
	hi = int32(1)<<(b-1) - 1
	return -hi - 1, hi, uint32(1)<<b - 1
}

// MaxAbs returns the largest absolute value in x, +0 for an empty slice.
// NaNs are skipped (see the package doc); ±Inf is an ordinary maximum.
func MaxAbs(x []float32) float32 { return maxAbs(x) }

// Quantize converts t to precision p using per-tensor symmetric linear
// scaling: values are mapped into [-2^(b-1), 2^(b-1)-1] by scale = max|x| /
// (2^(b-1)-1). FP32 is a bit-exact passthrough.
func Quantize(t *tensor.Tensor, p Precision) *QTensor {
	q := &QTensor{}
	QuantizeInto(q, t, p)
	return q
}

// QuantizeInto is Quantize into a caller-owned image: q's Shape and Codes
// storage is reused when large enough, so a caller that quantizes tensor
// after tensor (a corruptor's per-layer hook) allocates nothing at steady
// state. Everything q held before is overwritten.
func QuantizeInto(q *QTensor, t *tensor.Tensor, p Precision) {
	n := t.Size()
	if cap(q.Codes) < n {
		q.Codes = make([]uint32, n)
	}
	q.Prec, q.Scale, q.Codes = p, 1, q.Codes[:n]
	q.Shape = append(q.Shape[:0], t.Shape()...)
	if p == FP32 {
		for i, v := range t.Data {
			q.Codes[i] = math.Float32bits(v)
		}
		return
	}
	lo, hi, mask := codeRange(p.Bits())
	if ma := maxAbs(t.Data); ma != 0 {
		q.Scale = ma / float32(hi)
	}
	quantizeCodes(q.Codes, t.Data, q.Scale, lo, hi, mask)
}

// Dequantize reconstructs a float32 tensor from the stored codes.
func (q *QTensor) Dequantize() *tensor.Tensor {
	out := tensor.New(q.Shape...)
	q.DequantizeInto(out.Data)
	return out
}

// DequantizeInto decodes into dst, which must hold exactly Size() values.
// It is Dequantize without the allocation, for callers that already own the
// destination storage (e.g. corrupting a sample's slab of a fused batch
// tensor in place).
func (q *QTensor) DequantizeInto(dst []float32) {
	if len(dst) != len(q.Codes) {
		panic(fmt.Sprintf("quant: DequantizeInto dst holds %d values, want %d", len(dst), len(q.Codes)))
	}
	if q.Prec == FP32 {
		for i, c := range q.Codes {
			dst[i] = math.Float32frombits(c)
		}
		return
	}
	dequantizeCodes(dst, q.Codes, q.Scale, q.Prec.Bits())
}

// signExtend interprets the low b bits of c as a two's-complement integer.
func signExtend(c uint32, b int) int32 {
	shift := 32 - b
	return int32(c<<shift) >> shift
}

// Value decodes the single value at index i.
func (q *QTensor) Value(i int) float32 {
	if q.Prec == FP32 {
		return math.Float32frombits(q.Codes[i])
	}
	return float32(signExtend(q.Codes[i], q.Prec.Bits())) * q.Scale
}

// SetValue re-encodes v into the code at index i using the existing scale.
func (q *QTensor) SetValue(i int, v float32) { q.Codes[i] = q.Encode(v) }

// Encode returns the stored code SetValue would write for v: v/Scale
// rounded half away from zero, clamped to the code range, low Bits() bits.
func (q *QTensor) Encode(v float32) uint32 {
	if q.Prec == FP32 {
		return math.Float32bits(v)
	}
	lo, hi, mask := codeRange(q.Prec.Bits())
	return uint32(encode(v, q.Scale, lo, hi)) & mask
}

// FlipBit flips bit `bit` (0 = LSB) of the stored representation of value i.
// This is the primitive approximate-DRAM error injection uses.
func (q *QTensor) FlipBit(i, bit int) {
	q.Codes[i] ^= 1 << uint(bit)
}

// Bit reports bit `bit` of value i's stored representation.
func (q *QTensor) Bit(i, bit int) bool {
	return q.Codes[i]>>uint(bit)&1 == 1
}

// NumValues returns the number of stored values.
func (q *QTensor) NumValues() int { return len(q.Codes) }

// NumBits returns the total number of stored bits.
func (q *QTensor) NumBits() int { return len(q.Codes) * q.Prec.Bits() }

// Bytes returns the storage footprint in bytes (bit count rounded up).
func (q *QTensor) Bytes() int { return (q.NumBits() + 7) / 8 }

// Clone returns an independent deep copy.
func (q *QTensor) Clone() *QTensor {
	c := &QTensor{Prec: q.Prec, Shape: q.Shape.Clone(), Scale: q.Scale, Codes: make([]uint32, len(q.Codes))}
	copy(c.Codes, q.Codes)
	return c
}

// Pack serializes the codes into a densely packed little-endian bit stream,
// the byte image that is stored in (approximate) DRAM: value i's bit k is
// bit i*Bits()+k of the stream. Whole-byte precisions are therefore plain
// little-endian integers and are written as such; sub-byte codes go bit by
// bit.
func (q *QTensor) Pack() []byte {
	b := q.Prec.Bits()
	out := make([]byte, q.Bytes())
	switch b {
	case 8:
		for i, c := range q.Codes {
			out[i] = byte(c)
		}
	case 16:
		for i, c := range q.Codes {
			binary.LittleEndian.PutUint16(out[2*i:], uint16(c))
		}
	case 32:
		for i, c := range q.Codes {
			binary.LittleEndian.PutUint32(out[4*i:], c)
		}
	default:
		bitPos := 0
		for _, c := range q.Codes {
			for k := 0; k < b; k++ {
				if c>>uint(k)&1 == 1 {
					out[bitPos>>3] |= 1 << uint(bitPos&7)
				}
				bitPos++
			}
		}
	}
	return out
}

// Unpack deserializes a byte image produced by Pack back into the codes.
// It panics if the buffer is shorter than the tensor's footprint.
func (q *QTensor) Unpack(buf []byte) {
	b := q.Prec.Bits()
	if len(buf) < q.Bytes() {
		panic(fmt.Sprintf("quant: Unpack buffer %d bytes, need %d", len(buf), q.Bytes()))
	}
	switch b {
	case 8:
		for i := range q.Codes {
			q.Codes[i] = uint32(buf[i])
		}
	case 16:
		for i := range q.Codes {
			q.Codes[i] = uint32(binary.LittleEndian.Uint16(buf[2*i:]))
		}
	case 32:
		for i := range q.Codes {
			q.Codes[i] = binary.LittleEndian.Uint32(buf[4*i:])
		}
	default:
		bitPos := 0
		for i := range q.Codes {
			var c uint32
			for k := 0; k < b; k++ {
				if buf[bitPos>>3]>>uint(bitPos&7)&1 == 1 {
					c |= 1 << uint(k)
				}
				bitPos++
			}
			q.Codes[i] = c
		}
	}
}
