package dnn

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// DetectionHead describes a YOLO-style grid head. The network's final layer
// must emit (N, Grid*Grid*(5+Classes)) raw values: per cell, an objectness
// logit, box offsets (cx, cy within cell; w, h as image fractions) and class
// logits.
type DetectionHead struct {
	Grid    int
	Classes int
}

// CellValues returns the number of raw values per grid cell.
func (h *DetectionHead) CellValues() int { return 5 + h.Classes }

// OutputSize returns the required network output width.
func (h *DetectionHead) OutputSize() int { return h.Grid * h.Grid * h.CellValues() }

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// yoloTarget locates the responsible grid cell for a ground-truth box.
func (h *DetectionHead) cellFor(b dataset.Box) (gx, gy int, ox, oy float32) {
	g := float32(h.Grid)
	gx = int(b.CX * g)
	gy = int(b.CY * g)
	if gx >= h.Grid {
		gx = h.Grid - 1
	}
	if gy >= h.Grid {
		gy = h.Grid - 1
	}
	ox = b.CX*g - float32(gx)
	oy = b.CY*g - float32(gy)
	return gx, gy, ox, oy
}

// YOLOLoss computes a simplified single-box YOLO loss over raw outputs and
// its gradient. Coordinate and size errors use MSE on sigmoid-squashed
// predictions; objectness and class terms use squared error against 1/0
// targets, with a reduced no-object weight as in the original YOLO.
func (h *DetectionHead) YOLOLoss(out *tensor.Tensor, samples []dataset.BoxSample) (float64, *tensor.Tensor) {
	n := out.Dim(0)
	cv := h.CellValues()
	grad := tensor.New(out.Shape()...)
	var loss float64
	const (
		wCoord = 5.0
		wNoObj = 0.2
	)
	for i := 0; i < n; i++ {
		s := samples[i]
		gx, gy, ox, oy := h.cellFor(s.Box)
		for cy := 0; cy < h.Grid; cy++ {
			for cx := 0; cx < h.Grid; cx++ {
				base := i*out.Dim(1) + (cy*h.Grid+cx)*cv
				objRaw := out.Data[base]
				obj := sigmoid(objRaw)
				isTarget := cx == gx && cy == gy
				var objT float32
				if isTarget {
					objT = 1
				}
				// d/dRaw of (obj - t)^2 = 2(obj-t)*obj*(1-obj)
				d := obj - objT
				w := float32(1.0)
				if !isTarget {
					w = wNoObj
				}
				loss += float64(w * d * d)
				grad.Data[base] += w * 2 * d * obj * (1 - obj)
				if !isTarget {
					continue
				}
				// Box terms, sigmoid-squashed into (0,1).
				targets := [4]float32{ox, oy, s.Box.W, s.Box.H}
				for t := 0; t < 4; t++ {
					raw := out.Data[base+1+t]
					p := sigmoid(raw)
					dd := p - targets[t]
					loss += wCoord * float64(dd*dd)
					grad.Data[base+1+t] += float32(wCoord) * 2 * dd * p * (1 - p)
				}
				// Class terms.
				for c := 0; c < h.Classes; c++ {
					raw := out.Data[base+5+c]
					p := sigmoid(raw)
					var ct float32
					if c == s.Class {
						ct = 1
					}
					dd := p - ct
					loss += float64(dd * dd)
					grad.Data[base+5+c] += 2 * dd * p * (1 - p)
				}
			}
		}
	}
	grad.Scale(1 / float32(n))
	return loss / float64(n), grad
}

// Decode converts raw outputs into detections, applying a confidence
// threshold and greedy non-maximum suppression. The NMS confidence sort and
// arbitrary indexing is what makes YOLO's memory behaviour latency-bound in
// the paper's CPU evaluation (§7.1).
func (h *DetectionHead) Decode(out *tensor.Tensor, sampleIdx int, confThresh float64) []dataset.Detection {
	cv := h.CellValues()
	var dets []dataset.Detection
	for cy := 0; cy < h.Grid; cy++ {
		for cx := 0; cx < h.Grid; cx++ {
			base := sampleIdx*out.Dim(1) + (cy*h.Grid+cx)*cv
			obj := float64(sigmoid(out.Data[base]))
			if obj < confThresh {
				continue
			}
			bestC, bestP := 0, float32(-1)
			for c := 0; c < h.Classes; c++ {
				p := sigmoid(out.Data[base+5+c])
				if p > bestP {
					bestP = p
					bestC = c
				}
			}
			g := float32(h.Grid)
			b := dataset.Box{
				CX: (float32(cx) + sigmoid(out.Data[base+1])) / g,
				CY: (float32(cy) + sigmoid(out.Data[base+2])) / g,
				W:  sigmoid(out.Data[base+3]),
				H:  sigmoid(out.Data[base+4]),
			}
			dets = append(dets, dataset.Detection{Class: bestC, Box: b, Conf: obj * float64(bestP)})
		}
	}
	// Greedy NMS at IoU 0.5.
	sort.Slice(dets, func(a, b int) bool { return dets[a].Conf > dets[b].Conf })
	var kept []dataset.Detection
	for _, d := range dets {
		drop := false
		for _, k := range kept {
			if k.Class == d.Class && k.Box.IoU(d.Box) > 0.5 {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, d)
		}
	}
	return kept
}

// boxBatch assembles the samples at the given indices into an (N,C,H,W)
// tensor plus the parallel sample slice, as dataset.Dataset.Batch does for
// classification.
func boxBatch(ds *dataset.BoxDataset, idx []int) (*tensor.Tensor, []dataset.BoxSample) {
	x := tensor.New(len(idx), ds.C, ds.H, ds.W)
	samples := make([]dataset.BoxSample, len(idx))
	per := ds.C * ds.H * ds.W
	for i, j := range idx {
		copy(x.Data[i*per:(i+1)*per], ds.Samples[j].X.Data)
		samples[i] = ds.Samples[j]
	}
	return x, samples
}

// MAP evaluates the network's mean average precision on ds.
func (n *Network) MAP(ds *dataset.BoxDataset, opt EvalOptions) float64 {
	if n.Det == nil {
		panic("dnn: MAP called on a non-detection network")
	}
	var preds [][]dataset.Detection
	total := n.evaluate(ds.Len(), opt, func(idx []int) (*tensor.Tensor, func(*tensor.Tensor)) {
		x, _ := boxBatch(ds, idx)
		return x, func(out *tensor.Tensor) {
			for i := range idx {
				preds = append(preds, n.Det.Decode(out, i, 0.3))
			}
		}
	})
	return dataset.MeanAP(ds.Samples[:total], preds, 0.5)
}

// TrainDetector trains a detection network on ds with the YOLO loss.
func TrainDetector(net *Network, ds *dataset.BoxDataset, opt TrainOptions) {
	if net.Det == nil {
		panic("dnn: TrainDetector called on a non-detection network")
	}
	train(net, ds.Len(), opt.Seed^0x64657465, opt, func(idx []int) (*tensor.Tensor, func(*tensor.Tensor) *tensor.Tensor) {
		x, samples := boxBatch(ds, idx)
		return x, func(out *tensor.Tensor) *tensor.Tensor {
			_, dOut := net.Det.YOLOLoss(out, samples)
			return dOut
		}
	})
}
