package dnn

import (
	"repro/internal/tensor"
)

// Residual is a ResNet-style block: out = ReLU(body(x) + project(x)).
// Project is nil for identity shortcuts.
type Residual struct {
	LayerName string
	Body      Layer
	Project   Layer // 1×1 conv path when shapes change, else nil
	relu      ReLU
}

// Name returns the block name.
func (l *Residual) Name() string { return l.LayerName }

// Forward computes the residual sum followed by ReLU.
func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b := l.Body.Forward(x, train)
	s := x
	if l.Project != nil {
		s = l.Project.Forward(x, train)
	}
	sum := b.Clone()
	sum.AddScaled(s, 1)
	return l.relu.Forward(sum, train)
}

// Backward splits the gradient between the body and the shortcut.
func (l *Residual) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dSum := l.relu.Backward(dOut)
	dIn := l.Body.Backward(dSum)
	if l.Project != nil {
		dShort := l.Project.Backward(dSum)
		dIn = dIn.Clone()
		dIn.AddScaled(dShort, 1)
	} else {
		dIn = dIn.Clone()
		dIn.AddScaled(dSum, 1)
	}
	return dIn
}

// Params returns body and projection parameters.
func (l *Residual) Params() []*Param {
	ps := l.Body.Params()
	if l.Project != nil {
		ps = append(ps, l.Project.Params()...)
	}
	return ps
}

// NewResidual builds a two-conv residual block with batch norm. When stride
// != 1 or inC != outC a 1×1 projection shortcut is added.
func NewResidual(name string, inC, outC, stride int, rng *tensor.RNG) *Residual {
	body := &Sequential{LayerName: name + ".body", Layers: []Layer{
		NewConv(name+".conv1", inC, outC, 3, tensor.Conv2DParams{Stride: stride, Padding: 1}, false, rng),
		NewBatchNorm(name+".bn1", outC),
		&ReLU{LayerName: name + ".relu1"},
		NewConv(name+".conv2", outC, outC, 3, tensor.Conv2DParams{Stride: 1, Padding: 1}, false, rng),
		NewBatchNorm(name+".bn2", outC),
	}}
	r := &Residual{LayerName: name, Body: body, relu: ReLU{LayerName: name + ".relu_out"}}
	if stride != 1 || inC != outC {
		r.Project = &Sequential{LayerName: name + ".project", Layers: []Layer{
			NewConv(name+".proj_conv", inC, outC, 1, tensor.Conv2DParams{Stride: stride}, false, rng),
			NewBatchNorm(name+".proj_bn", outC),
		}}
	}
	return r
}

// Fire is SqueezeNet's module: a 1×1 squeeze followed by parallel 1×1 and
// 3×3 expands whose outputs are concatenated along channels.
type Fire struct {
	LayerName string
	Squeeze   Layer
	Expand1   Layer
	Expand3   Layer
	e1C, e3C  int
}

// NewFire builds a fire module with s squeeze channels and e1+e3 expand
// channels.
func NewFire(name string, inC, s, e1, e3 int, rng *tensor.RNG) *Fire {
	return &Fire{
		LayerName: name,
		Squeeze: &Sequential{LayerName: name + ".squeeze", Layers: []Layer{
			NewConv(name+".squeeze_conv", inC, s, 1, tensor.Conv2DParams{}, true, rng),
			&ReLU{LayerName: name + ".squeeze_relu"},
		}},
		Expand1: &Sequential{LayerName: name + ".expand1", Layers: []Layer{
			NewConv(name+".expand1_conv", s, e1, 1, tensor.Conv2DParams{}, true, rng),
			&ReLU{LayerName: name + ".expand1_relu"},
		}},
		Expand3: &Sequential{LayerName: name + ".expand3", Layers: []Layer{
			NewConv(name+".expand3_conv", s, e3, 3, tensor.Conv2DParams{Padding: 1}, true, rng),
			&ReLU{LayerName: name + ".expand3_relu"},
		}},
		e1C: e1, e3C: e3,
	}
}

// Name returns the module name.
func (l *Fire) Name() string { return l.LayerName }

// Forward squeezes then expands along two parallel paths.
func (l *Fire) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := l.Squeeze.Forward(x, train)
	a := l.Expand1.Forward(s, train)
	b := l.Expand3.Forward(s, train)
	return tensor.Concat(a, b)
}

// Backward splits the concatenated gradient and merges squeeze gradients.
func (l *Fire) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	parts := tensor.SplitChannels(dOut, []int{l.e1C, l.e3C})
	dS := l.Expand1.Backward(parts[0])
	dS2 := l.Expand3.Backward(parts[1])
	dS = dS.Clone()
	dS.AddScaled(dS2, 1)
	return l.Squeeze.Backward(dS)
}

// Params returns all module parameters.
func (l *Fire) Params() []*Param {
	ps := l.Squeeze.Params()
	ps = append(ps, l.Expand1.Params()...)
	ps = append(ps, l.Expand3.Params()...)
	return ps
}

// DenseBlock is DenseNet's block: each sublayer consumes the concatenation
// of the block input and all previous sublayer outputs.
type DenseBlock struct {
	LayerName string
	Convs     []Layer // each grows the channel count by the growth rate
	growth    int
	inC       int
	catCache  []*tensor.Tensor
}

// NewDenseBlock builds a dense block with n 3×3 conv sublayers of the given
// growth rate.
func NewDenseBlock(name string, inC, growth, n int, rng *tensor.RNG) *DenseBlock {
	b := &DenseBlock{LayerName: name, growth: growth, inC: inC}
	c := inC
	for i := 0; i < n; i++ {
		b.Convs = append(b.Convs, &Sequential{
			LayerName: name + ".dense" + itoa(i),
			Layers: []Layer{
				NewBatchNorm(name+".bn"+itoa(i), c),
				&ReLU{LayerName: name + ".relu" + itoa(i)},
				NewConv(name+".conv"+itoa(i), c, growth, 3, tensor.Conv2DParams{Padding: 1}, false, rng),
			},
		})
		c += growth
	}
	return b
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

// Name returns the block name.
func (l *DenseBlock) Name() string { return l.LayerName }

// OutChannels returns the number of channels the block produces.
func (l *DenseBlock) OutChannels() int { return l.inC + l.growth*len(l.Convs) }

// Forward iteratively concatenates features.
func (l *DenseBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	cat := x
	if train {
		l.catCache = l.catCache[:0]
	}
	for _, conv := range l.Convs {
		if train {
			// Training-path cache: catCache's backing array is reused via [:0],
			// so steady-state epochs append without allocating.
			l.catCache = append(l.catCache, cat)
		}
		out := conv.Forward(cat, train)
		cat = tensor.Concat(cat, out)
	}
	return cat
}

// Backward unwinds the concatenations in reverse.
func (l *DenseBlock) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dCat := dOut
	for i := len(l.Convs) - 1; i >= 0; i-- {
		prevC := l.inC + l.growth*i
		parts := tensor.SplitChannels(dCat, []int{prevC, l.growth})
		dPrev := parts[0]
		dNew := parts[1]
		dFromConv := l.Convs[i].Backward(dNew)
		dPrev.AddScaled(dFromConv, 1)
		dCat = dPrev
	}
	return dCat
}

// Params returns all sublayer parameters.
func (l *DenseBlock) Params() []*Param {
	var ps []*Param
	for _, c := range l.Convs {
		ps = append(ps, c.Params()...)
	}
	return ps
}

// InvertedResidual is MobileNetV2's block: 1×1 expand, 3×3 depthwise,
// 1×1 project, with a shortcut when the shape is preserved.
type InvertedResidual struct {
	LayerName string
	Body      Layer
	UseRes    bool
}

// NewInvertedResidual builds a block with the given expansion factor.
func NewInvertedResidual(name string, inC, outC, stride, expand int, rng *tensor.RNG) *InvertedResidual {
	mid := inC * expand
	check(mid > 0, "inverted residual with zero expansion")
	layers := []Layer{}
	if expand != 1 {
		layers = append(layers,
			NewConv(name+".expand_conv", inC, mid, 1, tensor.Conv2DParams{}, false, rng),
			NewBatchNorm(name+".expand_bn", mid),
			&ReLU{LayerName: name + ".expand_relu6", Ceil: 6},
		)
	}
	layers = append(layers,
		NewConv(name+".dw_conv", mid, mid, 3, tensor.Conv2DParams{Stride: stride, Padding: 1, Groups: mid}, false, rng),
		NewBatchNorm(name+".dw_bn", mid),
		&ReLU{LayerName: name + ".dw_relu6", Ceil: 6},
		NewConv(name+".project_conv", mid, outC, 1, tensor.Conv2DParams{}, false, rng),
		NewBatchNorm(name+".project_bn", outC),
	)
	return &InvertedResidual{
		LayerName: name,
		Body:      &Sequential{LayerName: name + ".body", Layers: layers},
		UseRes:    stride == 1 && inC == outC,
	}
}

// Name returns the block name.
func (l *InvertedResidual) Name() string { return l.LayerName }

// Forward applies the body plus shortcut when applicable.
func (l *InvertedResidual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := l.Body.Forward(x, train)
	if l.UseRes {
		out = out.Clone()
		out.AddScaled(x, 1)
	}
	return out
}

// Backward adds the shortcut gradient when applicable.
func (l *InvertedResidual) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	dIn := l.Body.Backward(dOut)
	if l.UseRes {
		dIn = dIn.Clone()
		dIn.AddScaled(dOut, 1)
	}
	return dIn
}

// Params returns body parameters.
func (l *InvertedResidual) Params() []*Param { return l.Body.Params() }
