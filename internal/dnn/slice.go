package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// BoundaryShapes returns the L+1 activation shapes at the network's layer
// boundaries for a single-sample input: entry i (i < L) is the shape of
// layer i's input feature map, entry L is the final output shape. The
// shapes come from a dry forward pass, so they reflect exactly what a
// serving forward produces at each boundary — slicing and the cluster
// partitioner both consume them (activation-transfer bytes at a cut are
// the boundary tensor's size at the deployment's precision).
func (n *Network) BoundaryShapes() []tensor.Shape {
	shapes := make([]tensor.Shape, 0, len(n.Layers)+1)
	x := tensor.New(1, n.InC, n.InH, n.InW)
	for _, l := range n.Layers {
		shapes = append(shapes, x.Shape().Clone())
		x = l.Forward(x, false)
	}
	shapes = append(shapes, x.Shape().Clone())
	return shapes
}

// Slice returns the contiguous stage view [lo, hi) of the network: a
// Network whose Layers are n.Layers[lo:hi] and whose input geometry is the
// boundary shape entering layer lo. The slice SHARES layer values (and
// therefore weights) with n — callers that corrupt or retrain the slice
// must slice a private clone. Classes is carried over so a final stage can
// report output geometry; the detection head is carried only by the final
// stage, where its output encoding is actually produced.
//
// A sliced network forwards exactly like the corresponding span of the
// full network: Forward(slice, x) is bit-identical to running layers
// lo..hi-1 of n on x, because slicing changes no layer state. That is the
// cornerstone of the cluster determinism contract.
func (n *Network) Slice(lo, hi int) (*Network, error) {
	if lo < 0 || hi > len(n.Layers) || lo >= hi {
		return nil, fmt.Errorf("dnn: slice [%d,%d) out of range for %d layers", lo, hi, len(n.Layers))
	}
	shapes := n.BoundaryShapes()
	in := shapes[lo]
	s := &Network{
		ModelName: n.ModelName,
		Layers:    n.Layers[lo:hi:hi],
		Classes:   n.Classes,
	}
	// Input geometry: the boundary tensor's (C,H,W) when it is a feature
	// map, or (size,1,1) for flattened rank-2 activations — either way
	// InC*InH*InW is the per-sample element count serving validates
	// against.
	switch len(in) {
	case 4:
		s.InC, s.InH, s.InW = in[1], in[2], in[3]
	default:
		s.InC, s.InH, s.InW = in.Size(), 1, 1
	}
	if hi == len(n.Layers) {
		s.Det = n.Det
	}
	return s, nil
}
