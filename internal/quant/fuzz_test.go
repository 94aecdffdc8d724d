package quant

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzPackUnpack drives randomized byte images and value streams through the
// Pack/Unpack codec at every precision, including the sub-byte int4 format
// whose values straddle byte boundaries. Both the binary activation wire and
// the deployment artifact format store tensors as Pack images, so the codec
// must round-trip exactly: codes -> bytes -> codes must be the identity on
// the meaningful bits, and bytes -> codes -> bytes must reproduce every bit
// the image actually stores.
func FuzzPackUnpack(f *testing.F) {
	f.Add(uint64(1), 7, int(Int4))
	f.Add(uint64(2), 16, int(Int8))
	f.Add(uint64(3), 5, int(Int16))
	f.Add(uint64(4), 3, int(FP32))
	f.Add(uint64(5), 1, int(Int4))
	f.Fuzz(func(t *testing.T, seed uint64, n, precRaw int) {
		precs := []Precision{FP32, Int16, Int8, Int4}
		p := precs[((precRaw%len(precs))+len(precs))%len(precs)]
		if n < 1 {
			n = 1
		}
		if n > 4096 {
			n = 4096
		}
		r := tensor.NewRNG(seed)
		src := tensor.New(n)
		src.FillUniform(r, -8, 8)
		q := Quantize(src, p)

		// Codes -> bytes -> codes is the identity.
		img := q.Pack()
		q2 := &QTensor{Prec: p, Shape: q.Shape.Clone(), Scale: q.Scale, Codes: make([]uint32, n)}
		q2.Unpack(img)
		for i := range q.Codes {
			if q.Codes[i] != q2.Codes[i] {
				t.Fatalf("%v code %d: %#x -> pack -> unpack -> %#x", p, i, q.Codes[i], q2.Codes[i])
			}
		}

		// Bytes -> codes -> bytes reproduces every stored bit, including a
		// partial trailing byte for sub-byte precisions.
		raw := make([]byte, q.Bytes())
		for i := range raw {
			raw[i] = byte(r.Intn(256))
		}
		q3 := &QTensor{Prec: p, Shape: q.Shape.Clone(), Scale: 1, Codes: make([]uint32, n)}
		q3.Unpack(raw)
		img3 := q3.Pack()
		bits := q3.NumBits()
		for b := 0; b < bits; b++ {
			got := img3[b>>3] >> uint(b&7) & 1
			want := raw[b>>3] >> uint(b&7) & 1
			if got != want {
				t.Fatalf("%v stored bit %d: raw %d -> unpack -> pack -> %d", p, b, want, got)
			}
		}

		// The decoded values must be finite for integer precisions.
		if p != FP32 {
			for i := range q.Codes {
				if v := q.Value(i); math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%v value %d decodes to %v", p, i, v)
				}
			}
		}
	})
}
