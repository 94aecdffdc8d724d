// Package dnn is a from-scratch deep neural network stack: layers with full
// backpropagation, SGD training, a model zoo mirroring the paper's
// architectures at reduced scale, and classification/detection evaluation.
// It substitutes for the paper's PyTorch + DarkNet setup while exposing the
// two handles EDEN needs: enumerable weight tensors and a per-layer IFM hook
// through which approximate-DRAM errors are injected.
package dnn

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/tensor"
)

// Param is one trainable tensor with its gradient and momentum buffers.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
	V    *tensor.Tensor
}

func newParam(name string, dims ...int) *Param {
	return &Param{Name: name, W: tensor.New(dims...), G: tensor.New(dims...), V: tensor.New(dims...)}
}

// Layer is a differentiable network stage. Forward caches whatever Backward
// needs; Backward returns the gradient with respect to the layer input and
// accumulates parameter gradients.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dOut *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// sampleLayer is implemented by the layers whose inference needs no compute
// backend and treats every sample by itself — ReLU, MaxPool, Flatten and
// Dropout. inferInto is the one inference body of such a layer:
// Layer.Forward(x, false) allocates an output and calls it on the whole
// batch, and ForwardBatchFused calls it on one sample's slab at a time.
type sampleLayer interface {
	Layer
	// outShape returns the output shape for an input of shape in; a layer
	// that keeps the shape returns in itself.
	outShape(in tensor.Shape) tensor.Shape
	// inferInto writes the inference-mode output for src, of shape in, to
	// dst. dst may be src itself whenever the output has as many elements
	// as the input. It touches no layer state.
	inferInto(dst, src []float32, in tensor.Shape)
}

// Conv is a 2-D convolution layer with optional bias.
type Conv struct {
	LayerName string
	P         tensor.Conv2DParams
	Weight    *Param
	Bias      *Param // nil when the layer is bias-free
	lastInput *tensor.Tensor
}

// NewConv creates a convolution with f filters of c/groups×k×k weights,
// He-initialized from rng.
func NewConv(name string, inC, outC, k int, p tensor.Conv2DParams, bias bool, rng *tensor.RNG) *Conv {
	if p.Groups <= 0 {
		p.Groups = 1
	}
	l := &Conv{LayerName: name, P: p}
	l.Weight = newParam(name+".weight", outC, inC/p.Groups, k, k)
	fanIn := float64(inC / p.Groups * k * k)
	l.Weight.W.FillNormal(rng, math.Sqrt(2/fanIn))
	if bias {
		l.Bias = newParam(name + ".bias")
		l.Bias.W = tensor.New(outC)
		l.Bias.G = tensor.New(outC)
		l.Bias.V = tensor.New(outC)
	}
	return l
}

// Name returns the layer name.
func (l *Conv) Name() string { return l.LayerName }

// Forward convolves x with the layer weights. Inference-mode forwards
// (train == false) touch no layer state, so a network may run concurrent
// evaluation passes over shared weights (see Network.ForwardBatchFused).
func (l *Conv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.lastInput = x
	}
	var b *tensor.Tensor
	if l.Bias != nil {
		b = l.Bias.W
	}
	return compute.Default().Conv2D(x, l.Weight.W, b, l.P)
}

// Backward propagates dOut and accumulates weight/bias gradients.
func (l *Conv) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dIn, dW, dB := compute.Default().Conv2DBackward(l.lastInput, l.Weight.W, l.Bias != nil, dOut, l.P)
	l.lastInput = nil
	l.Weight.G.AddScaled(dW, 1)
	if l.Bias != nil {
		l.Bias.G.AddScaled(dB, 1)
	}
	return dIn
}

// Params returns the layer's trainable tensors.
func (l *Conv) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

// FC is a fully-connected layer storing weights out×in.
type FC struct {
	LayerName string
	Weight    *Param
	Bias      *Param
	lastInput *tensor.Tensor
	lastShape tensor.Shape
}

// NewFC creates an in→out fully-connected layer, He-initialized.
func NewFC(name string, in, out int, rng *tensor.RNG) *FC {
	l := &FC{LayerName: name}
	l.Weight = newParam(name+".weight", out, in)
	l.Weight.W.FillNormal(rng, math.Sqrt(2/float64(in)))
	l.Bias = newParam(name+".bias", out)
	return l
}

// Name returns the layer name.
func (l *FC) Name() string { return l.LayerName }

// Forward flattens x to (N, in) and applies xWᵀ + b.
func (l *FC) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	in := x.Size() / n
	flat := x.Reshape(n, in)
	if train {
		l.lastInput = flat
		l.lastShape = x.Shape().Clone()
	}
	out := compute.Default().MatMulTransB(flat, l.Weight.W)
	// 1·b is b exactly, so the axpy's add is the add of out[i,j] += b[j].
	ncols := out.Dim(1)
	for i := 0; i < n; i++ {
		compute.Axpy(out.Data[i*ncols:(i+1)*ncols], l.Bias.W.Data, 1)
	}
	return out
}

// Backward propagates dOut (N,out) and accumulates gradients.
func (l *FC) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	n, out := dOut.Dim(0), dOut.Dim(1)
	in := l.Weight.W.Dim(1)
	// dW[j,p] += sum_i dOut[i,j] * x[i,p]
	for i := 0; i < n; i++ {
		xrow := l.lastInput.Data[i*in : (i+1)*in]
		drow := dOut.Data[i*out : (i+1)*out]
		for j := 0; j < out; j++ {
			g := drow[j]
			if g == 0 {
				continue
			}
			l.Bias.G.Data[j] += g
			compute.Axpy(l.Weight.G.Data[j*in:(j+1)*in], xrow, g)
		}
	}
	// dX = dOut * W
	dIn := compute.Default().MatMul(dOut, l.Weight.W)
	return dIn.Reshape(l.lastShape...)
}

// Params returns the layer's trainable tensors.
func (l *FC) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// ReLU applies max(0, x), optionally clipped at a ceiling (ReLU6 when
// Ceil = 6, as used by MobileNetV2). Forward always returns a fresh tensor;
// ForwardBatchFused, which owns its activations, applies the same body in
// place.
type ReLU struct {
	LayerName string
	Ceil      float32 // 0 means no ceiling
	mask      []bool
}

// Name returns the layer name.
func (l *ReLU) Name() string { return l.LayerName }

// Forward applies the activation into a fresh tensor; training also records
// which values passed, for Backward.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	l.inferInto(out.Data, x.Data, x.Shape())
	if train {
		l.mask = make([]bool, len(x.Data))
		for i, v := range x.Data {
			l.mask[i] = v > 0 && (l.Ceil == 0 || v < l.Ceil)
		}
	}
	return out
}

func (l *ReLU) outShape(in tensor.Shape) tensor.Shape { return in }

// inferInto is compute.Clamp, whose scalar body is the loop this layer
// always ran: −0 and negatives become +0, NaN and values at or above a
// non-zero Ceil become Ceil.
func (l *ReLU) inferInto(dst, src []float32, _ tensor.Shape) { compute.Clamp(dst, src, l.Ceil) }

// Backward gates the gradient by the activation mask.
func (l *ReLU) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dIn := dOut.Clone()
	for i := range dIn.Data {
		if !l.mask[i] {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// MaxPool is k×k max pooling with stride s. Forward always returns a fresh
// tensor; ForwardBatchFused pools each sample into a recycled slab instead.
type MaxPool struct {
	LayerName string
	K, S      int
	arg       []int32
	inShape   tensor.Shape
}

// Name returns the layer name.
func (l *MaxPool) Name() string { return l.LayerName }

// Forward pools x into a fresh tensor. Only training records the argmax
// Backward scatters through.
func (l *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		out, arg := tensor.MaxPool2D(x, l.K, l.S)
		l.arg = arg
		l.inShape = x.Shape().Clone()
		return out
	}
	out := tensor.New(l.outShape(x.Shape())...)
	l.inferInto(out.Data, x.Data, x.Shape())
	return out
}

func (l *MaxPool) outShape(in tensor.Shape) tensor.Shape {
	return tensor.Shape{in[0], in[1], (in[2]-l.K)/l.S + 1, (in[3]-l.K)/l.S + 1}
}

// inferInto pools without an argmax. The 2×2/stride-2 window over even
// extents — every pool in the zoo — goes output row by output row through
// compute.MaxPool2x2, which is tensor.MaxPool2DInto's window walk for that
// shape (a strict > from −Inf in tap order, so NaN never wins and the first
// of equal maxima does); any other window or an odd extent takes the walk
// itself.
func (l *MaxPool) inferInto(dst, src []float32, in tensor.Shape) {
	planes, h, w := in[0]*in[1], in[2], in[3]
	if l.K != 2 || l.S != 2 || h%2 != 0 || w%2 != 0 {
		tensor.MaxPool2DInto(dst, nil, src, planes, h, w, l.K, l.S)
		return
	}
	// With h even, output row r of the whole stack of planes reads input
	// rows 2r and 2r+1.
	ow := w / 2
	for r := 0; r < planes*h/2; r++ {
		compute.MaxPool2x2(dst[r*ow:(r+1)*ow], src[2*r*w:(2*r+1)*w], src[(2*r+1)*w:(2*r+2)*w])
	}
}

// Backward scatters the gradient to the argmax positions.
func (l *MaxPool) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2DBackward(dOut, l.arg, l.inShape)
}

// Params returns nil; pooling has no parameters.
func (l *MaxPool) Params() []*Param { return nil }

// GlobalAvgPool averages each channel plane to 1×1.
type GlobalAvgPool struct {
	LayerName string
	inShape   tensor.Shape
}

// Name returns the layer name.
func (l *GlobalAvgPool) Name() string { return l.LayerName }

// Forward averages spatial planes.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.inShape = x.Shape().Clone()
	}
	return tensor.AvgPool2DGlobal(x)
}

// Backward spreads the gradient uniformly.
func (l *GlobalAvgPool) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPool2DGlobalBackward(dOut, l.inShape)
}

// Params returns nil.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// Flatten reshapes (N,C,H,W) to (N, C*H*W).
type Flatten struct {
	LayerName string
	inShape   tensor.Shape
}

// Name returns the layer name.
func (l *Flatten) Name() string { return l.LayerName }

// Forward flattens all but the batch dimension.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.inShape = x.Shape().Clone()
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/n)
}

func (l *Flatten) outShape(in tensor.Shape) tensor.Shape {
	return tensor.Shape{in[0], in.Size() / in[0]}
}

// inferInto moves the values unchanged: flattening is a change of header.
func (l *Flatten) inferInto(dst, src []float32, _ tensor.Shape) { copy(dst, src) }

// Backward restores the original shape.
func (l *Flatten) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(l.inShape...)
}

// Params returns nil.
func (l *Flatten) Params() []*Param { return nil }

// BatchNorm normalizes each channel over the batch and spatial axes, with
// learned scale/shift and running statistics for inference.
type BatchNorm struct {
	LayerName string
	Gamma     *Param
	Beta      *Param
	RunMean   *tensor.Tensor
	RunVar    *tensor.Tensor
	Momentum  float64
	Eps       float64
	// caches for backward
	lastX  *tensor.Tensor
	xhat   *tensor.Tensor
	mean   []float64
	invStd []float64
}

// NewBatchNorm creates a batch normalization layer over c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	l := &BatchNorm{LayerName: name, Momentum: 0.1, Eps: 1e-5}
	l.Gamma = newParam(name+".gamma", c)
	l.Gamma.W.Fill(1)
	l.Beta = newParam(name+".beta", c)
	l.RunMean = tensor.New(c)
	l.RunVar = tensor.New(c)
	l.RunVar.Fill(1)
	return l
}

// Name returns the layer name.
func (l *BatchNorm) Name() string { return l.LayerName }

// Forward normalizes x; in training mode it uses batch statistics and
// updates the running estimates.
func (l *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	m := float64(n * plane)
	out := tensor.New(n, c, h, w)
	if train {
		l.lastX = x
		l.xhat = tensor.New(n, c, h, w)
		l.mean = make([]float64, c)
		l.invStd = make([]float64, c)
	}
	for ci := 0; ci < c; ci++ {
		var mu, va float64
		if train {
			for b := 0; b < n; b++ {
				base := (b*c + ci) * plane
				for i := 0; i < plane; i++ {
					mu += float64(x.Data[base+i])
				}
			}
			mu /= m
			for b := 0; b < n; b++ {
				base := (b*c + ci) * plane
				for i := 0; i < plane; i++ {
					d := float64(x.Data[base+i]) - mu
					va += d * d
				}
			}
			va /= m
			l.RunMean.Data[ci] = float32((1-l.Momentum)*float64(l.RunMean.Data[ci]) + l.Momentum*mu)
			l.RunVar.Data[ci] = float32((1-l.Momentum)*float64(l.RunVar.Data[ci]) + l.Momentum*va)
		} else {
			mu = float64(l.RunMean.Data[ci])
			va = float64(l.RunVar.Data[ci])
		}
		inv := 1 / math.Sqrt(va+l.Eps)
		g := float64(l.Gamma.W.Data[ci])
		bta := float64(l.Beta.W.Data[ci])
		if train {
			l.mean[ci] = mu
			l.invStd[ci] = inv
		}
		for b := 0; b < n; b++ {
			base := (b*c + ci) * plane
			for i := 0; i < plane; i++ {
				xh := (float64(x.Data[base+i]) - mu) * inv
				if train {
					l.xhat.Data[base+i] = float32(xh)
				}
				out.Data[base+i] = float32(g*xh + bta)
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient.
func (l *BatchNorm) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := dOut.Dim(0), dOut.Dim(1), dOut.Dim(2), dOut.Dim(3)
	plane := h * w
	m := float64(n * plane)
	dIn := tensor.New(n, c, h, w)
	for ci := 0; ci < c; ci++ {
		var sumDy, sumDyXhat float64
		for b := 0; b < n; b++ {
			base := (b*c + ci) * plane
			for i := 0; i < plane; i++ {
				dy := float64(dOut.Data[base+i])
				sumDy += dy
				sumDyXhat += dy * float64(l.xhat.Data[base+i])
			}
		}
		l.Gamma.G.Data[ci] += float32(sumDyXhat)
		l.Beta.G.Data[ci] += float32(sumDy)
		g := float64(l.Gamma.W.Data[ci])
		inv := l.invStd[ci]
		for b := 0; b < n; b++ {
			base := (b*c + ci) * plane
			for i := 0; i < plane; i++ {
				dy := float64(dOut.Data[base+i])
				xh := float64(l.xhat.Data[base+i])
				dIn.Data[base+i] = float32(g * inv / m * (m*dy - sumDy - xh*sumDyXhat))
			}
		}
	}
	return dIn
}

// Params returns gamma and beta.
func (l *BatchNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1-P) (inverted dropout). Inference is the identity.
type Dropout struct {
	LayerName string
	P         float64
	RNG       *tensor.RNG
	mask      []bool
}

// Name returns the layer name.
func (l *Dropout) Name() string { return l.LayerName }

// Forward applies dropout in training mode only.
func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || l.P <= 0 {
		return x
	}
	out := x.Clone()
	l.mask = make([]bool, len(out.Data))
	scale := float32(1 / (1 - l.P))
	for i := range out.Data {
		if l.RNG.Float64() < l.P {
			out.Data[i] = 0
		} else {
			l.mask[i] = true
			out.Data[i] *= scale
		}
	}
	return out
}

func (l *Dropout) outShape(in tensor.Shape) tensor.Shape { return in }

// inferInto is the identity: inference keeps every activation.
func (l *Dropout) inferInto(dst, src []float32, _ tensor.Shape) { copy(dst, src) }

// Backward gates the gradient by the dropout mask.
func (l *Dropout) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dIn := dOut.Clone()
	scale := float32(1 / (1 - l.P))
	for i := range dIn.Data {
		if l.mask[i] {
			dIn.Data[i] *= scale
		} else {
			dIn.Data[i] = 0
		}
	}
	return dIn
}

// Params returns nil.
func (l *Dropout) Params() []*Param { return nil }

// Sequential composes sublayers into one layer; it is the building block
// for the zoo's composite modules.
type Sequential struct {
	LayerName string
	Layers    []Layer
}

// Name returns the composite's name.
func (l *Sequential) Name() string { return l.LayerName }

// Forward runs every sublayer in order.
func (l *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, s := range l.Layers {
		x = s.Forward(x, train)
	}
	return x
}

// Backward runs every sublayer's backward pass in reverse.
func (l *Sequential) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	for i := len(l.Layers) - 1; i >= 0; i-- {
		dOut = l.Layers[i].Backward(dOut)
	}
	return dOut
}

// Params concatenates sublayer parameters.
func (l *Sequential) Params() []*Param {
	var ps []*Param
	for _, s := range l.Layers {
		ps = append(ps, s.Params()...)
	}
	return ps
}

// check panics with a formatted message when cond is false; used by
// constructors to catch configuration mistakes early.
func check(cond bool, format string, args ...interface{}) {
	if !cond {
		panic("dnn: " + fmt.Sprintf(format, args...))
	}
}
