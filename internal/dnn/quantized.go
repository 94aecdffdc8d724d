package dnn

import (
	"repro/internal/compute"
	"repro/internal/quant"
)

// Int8WeightsFromQTensor decodes a quantized tensor's codes into the
// compute layer's native int8 weight image — sign-extended codes plus the
// per-tensor scale, no float round-trip. The per-output-channel code sums
// the packed kernels subtract on store are computed here, once per image,
// so the hot path never rescans the codes. Precisions wider than 8 bits
// have no int8 image and return nil.
func Int8WeightsFromQTensor(q *quant.QTensor) *compute.Int8Weights {
	if q.Prec == quant.FP32 || q.Prec.Bits() > 8 {
		return nil
	}
	iw := &compute.Int8Weights{Data: make([]int8, q.NumValues()), Scale: q.Scale, Shape: q.Shape.Clone()}
	q.Int8ValuesInto(iw.Data)
	if rows := iw.Shape[0]; rows > 0 {
		iw.RowSums = make([]int32, rows)
		k := len(iw.Data) / rows
		for r := 0; r < rows; r++ {
			var s int32
			for _, v := range iw.Data[r*k : (r+1)*k] {
				s += int32(v)
			}
			iw.RowSums[r] = s
		}
	}
	return iw
}

// AdoptQuantizedWeights caches an int8 code image of every Conv and FC
// weight tensor, quantized at prec, enabling the QuantBackend inference
// fast path (see Conv.Forward). Serving calls this when the default
// backend consumes quantized weights, before weight corruption — eden's
// CorruptWeights then keeps the adopted images in sync with the corrupted
// codes. Precisions wider than 8 bits clear any previously adopted images
// instead (there is no int8 image for them). It returns the number of
// weight tensors now carrying an image.
//
// Call it before the network serves concurrent forwards: it writes layer
// state that the hot path reads unlocked.
func (n *Network) AdoptQuantizedWeights(prec quant.Precision) int {
	adopted := 0
	walkLayers(n.Layers, func(l Layer) {
		var p *Param
		switch t := l.(type) {
		case *Conv:
			p = t.Weight
		case *FC:
			p = t.Weight
		default:
			return
		}
		if prec == quant.FP32 || prec.Bits() > 8 {
			p.SetQuantized(nil)
			return
		}
		p.SetQuantized(Int8WeightsFromQTensor(quant.Quantize(p.W, prec)))
		adopted++
	})
	return adopted
}
