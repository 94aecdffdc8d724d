package dnn

import (
	"math"

	"repro/internal/compute"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// IFMHook intercepts the input feature map of every top-level layer before
// it is consumed. EDEN uses it to inject approximate-DRAM bit errors into
// IFMs as they are loaded from memory; a nil hook is the identity.
type IFMHook func(layerIdx int, layer Layer, x *tensor.Tensor) *tensor.Tensor

// Network is a sequential composition of layers plus task metadata. The
// zoo's branching architectures (ResNet, DenseNet, ...) are expressed as
// composite layers, so a flat layer list suffices.
type Network struct {
	ModelName string
	Layers    []Layer
	Classes   int
	// Input geometry.
	InC, InH, InW int
	// Detection metadata; nil for classifiers.
	Det *DetectionHead
}

// Name returns the model name.
func (n *Network) Name() string { return n.ModelName }

// Forward runs the network. hook, when non-nil, is applied to each layer's
// input feature map.
func (n *Network) Forward(x *tensor.Tensor, train bool, hook IFMHook) *tensor.Tensor {
	for i, l := range n.Layers {
		if hook != nil {
			x = hook(i, l, x)
		}
		x = l.Forward(x, train)
	}
	return x
}

// BatchOptions configures ForwardBatch.
type BatchOptions struct {
	// HookFor supplies sample i's IFM hook, or nil for no hook. Hooks for
	// different samples run concurrently and must therefore not share
	// mutable state; eden corruptors provide deterministically seeded
	// per-sample clones for exactly this purpose (SoftwareDRAM.Clone).
	HookFor func(sample int) IFMHook
	// Done, when non-nil, is invoked once per sample right after that
	// sample's forward pass completes, on the goroutine that ran it.
	// Callers use it to recycle per-sample resources (eden.ClonePool) or
	// record per-sample timings without waiting for the whole batch. Like
	// HookFor, it runs concurrently across samples and must only touch
	// per-sample state.
	Done func(sample int)
}

// ForwardBatch runs one inference-mode forward pass per input, fanning the
// independent samples across the shared worker pool. Nothing in the program
// calls it — evaluation is serial batches through Forward and
// serving is ForwardBatchFused; it stays for the benchmark's fan-out probe
// (internal/bench's FanoutB16) and the tests that hold the fused pass to it,
// until the benchmark retires that probe. Layer weights and
// running statistics are read-only during inference (layers cache state
// only when train is set), so the passes share the network; every
// activation buffer is allocated inside its own pass, which makes the
// scratch state per-goroutine by construction. The returned slice is
// positionally aligned with xs and bit-identical to calling Forward on each
// sample serially, at any worker count.
func (n *Network) ForwardBatch(xs []*tensor.Tensor, opt BatchOptions) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(xs))
	parallel.ForEach(len(xs), func(i int) {
		var hook IFMHook
		if opt.HookFor != nil {
			hook = opt.HookFor(i)
		}
		outs[i] = n.Forward(xs[i], false, hook)
		if opt.Done != nil {
			opt.Done(i)
		}
	})
	return outs
}

// ForwardBatchFused runs the whole batch through the network as one pass
// that alternates two kinds of step. A batch kernel — Conv, FC and every
// other layer that is not a sampleLayer, composites included — sees the
// batch as a single N-row tensor, so each backend call amortizes its weight
// traffic and blocking setup across the batch. A maximal run of per-sample
// layers between two batch kernels (ReLU, MaxPool, Flatten, Dropout) is one
// fan-out over the samples: task i applies hook, layer, hook, layer, … and
// finally the following batch kernel's hook to sample i's slab while it is
// cache-resident.
//
// The pass owns every activation it holds: the inputs are copied in, batch
// kernels return fresh tensors, and nothing outlives the pass but a private
// copy of the last activation, which the returned (1, …) tensors are
// capacity-limited views of. That is what lets a per-sample layer that
// keeps the element count write over its own input, and one that changes it
// write into one of two whole-batch slabs recycled through
// compute.GetSlab/PutSlab, whichever the current activation is not in.
//
// Per-sample hooks see exactly what they see in ForwardBatch: before layer
// li, sample i's hook gets a no-copy (1, …) view of the sample's slab, in
// layer order, so hook-side quantization ranges, RNG streams and data IDs
// match the per-sample path bit for bit. A hook either rewrites the view
// and returns it or returns another tensor, which is copied back; it must
// not keep the view, whose header and storage the pass reuses. Kernels
// never reduce across the batch dimension and every task writes only its
// own sample's slabs, so the outputs are bit-identical to ForwardBatch's at
// any worker count — the two are interchangeable, and the serve scheduler
// dispatches every batch, a batch of one included, fused. Like
// ForwardBatch's, hooks of different samples run concurrently and must not
// share mutable state. Done callbacks run on the calling goroutine, samples
// in ascending order.
func (n *Network) ForwardBatchFused(xs []*tensor.Tensor, opt BatchOptions) []*tensor.Tensor {
	b := len(xs)
	if b == 0 {
		return nil
	}
	per := xs[0].Size()
	x := tensor.New(append([]int{b}, xs[0].Shape()[1:]...)...)
	for i, s := range xs {
		check(s.Shape().Equal(xs[0].Shape()), "ForwardBatchFused: sample %d has shape %v, sample 0 has %v", i, s.Shape(), xs[0].Shape())
		copy(x.Data[i*per:(i+1)*per], s.Data)
	}
	p := fusedPass{b: b, steps: make([]sampleStep, len(n.Layers)+1), dims: make([]int, 0, 8)}
	if opt.HookFor != nil {
		p.hooks = make([]IFMHook, b)
		for i := range p.hooks {
			p.hooks[i] = opt.HookFor(i)
		}
		p.views = make([]tensor.Tensor, b)
	}
	for lo := 0; lo <= len(n.Layers); {
		hi := lo
		for hi < len(n.Layers) && isSampleLayer(n.Layers[hi]) {
			hi++
		}
		for {
			if x, lo = p.runSamples(n.Layers, lo, hi, x); lo == hi {
				break
			}
		}
		if hi < len(n.Layers) {
			x = n.Layers[hi].Forward(x, false)
		}
		lo = hi + 1
	}
	// One copy for the whole batch, out of storage the pass may be about
	// to recycle; the outputs are disjoint views of it, each cut to its own
	// capacity so that appending to one cannot reach its neighbour.
	outs := make([]*tensor.Tensor, b)
	span := x.Size() / b
	dims := viewDims(&p.dims, x.Shape())
	outData := make([]float32, len(x.Data))
	copy(outData, x.Data)
	for _, s := range p.slabs {
		if s != nil {
			compute.PutSlab(s)
		}
	}
	for i := 0; i < b; i++ {
		outs[i] = tensor.FromSlice(outData[i*span:(i+1)*span:(i+1)*span], dims...)
		if opt.Done != nil {
			opt.Done(i)
		}
	}
	return outs
}

func isSampleLayer(l Layer) bool {
	_, ok := l.(sampleLayer)
	return ok
}

// fusedPass is the state of one ForwardBatchFused call. It lives on that
// call's stack, never on the Network, so concurrent passes share nothing.
type fusedPass struct {
	b     int
	hooks []IFMHook       // per sample; nil when the pass has no hooks
	views []tensor.Tensor // sample i's hook view header, re-pointed before every hook call
	slabs [2]*[]float32   // destinations of the shape-changing per-sample layers, drawn on first use
	steps []sampleStep    // the current run's plan
	dims  []int           // backs the run's first per-sample shape
}

// sampleStep is one step of a run as every sample executes it: layer's IFM
// hook on the sample's part of src, then op from there into its part of
// dst. src and dst are whole-batch buffers and the same one when op works
// in place. The step that ends a run ahead of a batch kernel is that
// kernel's hook alone: op is nil.
type sampleStep struct {
	li       int
	layer    Layer
	op       sampleLayer
	in       tensor.Shape // of one sample: (1, …)
	src, dst []float32
}

// runSamples executes the per-sample layers [lo, hi) and then the hook of
// layer hi (the batch kernel that follows, if any) as one fan-out over the
// samples, and returns the batch tensor layer hi is to consume. The plan —
// shapes and destinations — is the same for every sample, so it is laid
// out once, here, and the tasks only index into it. A second shape change
// would write, at another span per sample, into what slower samples are
// still reading, so the run ends before one — the fan-out's return is the
// barrier — and end < hi tells the caller to go on from there.
func (p *fusedPass) runSamples(layers []Layer, lo, hi int, x *tensor.Tensor) (_ *tensor.Tensor, end int) {
	in := tensor.Shape(viewDims(&p.dims, x.Shape()))
	shape, cur := in, x.Data
	drew := false
	for end = lo; end < hi; end++ {
		op := layers[end].(sampleLayer)
		out := op.outShape(shape)
		dst := cur
		if out.Size() != shape.Size() {
			if drew {
				break
			}
			drew = true
			dst = p.otherSlab(cur, p.b*out.Size())
		}
		p.steps[end-lo] = sampleStep{li: end, layer: layers[end], op: op, in: shape, src: cur, dst: dst}
		shape, cur = out, dst
	}
	steps := p.steps[:end-lo]
	if end == hi && p.hooks != nil && hi < len(layers) {
		steps = p.steps[:hi-lo+1]
		steps[hi-lo] = sampleStep{li: hi, layer: layers[hi], in: shape, src: cur}
	}
	if len(steps) == 0 {
		return x, end
	}
	b, hooks, views := p.b, p.hooks, p.views
	parallel.ForEach(b, func(i int) {
		for _, st := range steps {
			span := len(st.src) / b
			src := st.src[i*span : (i+1)*span]
			if hooks != nil && hooks[i] != nil {
				view := &views[i]
				view.Repoint(src, st.in...)
				if y := hooks[i](st.li, st.layer, view); y != view {
					copy(src, y.Data)
				}
			}
			if st.op != nil {
				span = len(st.dst) / b
				st.op.inferInto(st.dst[i*span:(i+1)*span], src, st.in)
			}
		}
	})
	if !shape.Equal(in) { // then shape is some outShape's own slice, free to edit
		shape[0] = b
		x = tensor.FromSlice(cur, shape...)
	}
	return x, end
}

// otherSlab returns n elements of whichever of the pass's two slabs does
// not hold cur, the activation about to be read. That slab's previous
// contents were consumed at least one step ago.
func (p *fusedPass) otherSlab(cur []float32, n int) []float32 {
	k := 0
	if s := p.slabs[0]; s != nil && len(*s) > 0 && len(cur) > 0 && &(*s)[0] == &cur[0] {
		k = 1
	}
	if s := p.slabs[k]; s != nil && cap(*s) < n {
		compute.PutSlab(s)
		p.slabs[k] = nil
	}
	if p.slabs[k] == nil {
		p.slabs[k] = compute.GetSlab(n)
	}
	return (*p.slabs[k])[:n]
}

// viewDims writes the per-sample view shape [1, shape[1], ...] into
// *buf, growing the buffer only when a network's rank exceeds its
// capacity — amortized zero allocations when called from a loop.
func viewDims(buf *[]int, shape tensor.Shape) []int {
	if cap(*buf) < len(shape) {
		*buf = make([]int, len(shape))
	}
	dims := (*buf)[:len(shape)]
	dims[0] = 1
	copy(dims[1:], shape[1:])
	return dims
}

// Backward propagates dOut through all layers, accumulating parameter
// gradients. Nothing reads the gradient of the network's input, so a first
// layer that is a Conv computes its parameter gradients alone.
func (n *Network) Backward(dOut *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if c, ok := n.Layers[i].(*Conv); ok && i == 0 {
			c.backwardWeights(dOut)
			return
		}
		dOut = n.Layers[i].Backward(dOut)
	}
}

// Params returns every trainable tensor in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Size()
	}
	return total
}

// WeightBytes returns the weight footprint in bytes when parameters are
// stored at precision prec. Each tensor's bit count rounds up to whole
// bytes, matching how quant.QTensor.Pack lays tensors out in (approximate)
// DRAM.
func (n *Network) WeightBytes(prec quant.Precision) int {
	total := 0
	for _, p := range n.Params() {
		total += (p.W.Size()*prec.Bits() + 7) / 8
	}
	return total
}

// IFMBytes returns the summed size of all top-level IFMs for a single input
// when feature maps are stored at precision prec, obtained by a dry forward
// pass. Like WeightBytes, each tensor rounds up to whole bytes.
func (n *Network) IFMBytes(prec quant.Precision) int {
	x := tensor.New(1, n.InC, n.InH, n.InW)
	total := 0
	n.Forward(x, false, func(_ int, _ Layer, t *tensor.Tensor) *tensor.Tensor {
		total += (t.Size()*prec.Bits() + 7) / 8
		return t
	})
	return total
}

// countCorrect returns how many rows of logits (N,K) have their largest
// value, the first one on ties, at the row's label.
func countCorrect(logits *tensor.Tensor, labels []int) int {
	k, correct := logits.Dim(1), 0
	for i, label := range labels {
		best := 0
		for j := 1; j < k; j++ {
			if logits.At(i, j) > logits.At(i, best) {
				best = j
			}
		}
		if best == label {
			correct++
		}
	}
	return correct
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits (N,K)
// against integer labels and the gradient with respect to the logits.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n := logits.Dim(0)
	probs := tensor.Softmax(logits)
	var loss float64
	grad := probs.Clone()
	for i := 0; i < n; i++ {
		p := float64(probs.At(i, labels[i]))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grad.Set(grad.At(i, labels[i])-1, i, labels[i])
	}
	grad.Scale(1 / float32(n))
	return loss / float64(n), grad
}

// EvalBatch is how many samples every evaluation pass runs through Forward
// at once; a hook sees IFMs of up to this many samples.
const EvalBatch = 16

// EvalOptions controls corrupted evaluation. Corrupt, when non-nil, is
// applied to the network weights before inference and undone afterwards via
// the returned restore function; Hook injects errors into IFMs. Hook only
// ever sees tensors the evaluation loop owns (gathered batches and fresh
// layer outputs), so it may corrupt them in place.
type EvalOptions struct {
	Hook    IFMHook
	Corrupt func(net *Network) (restore func())
	// MaxSamples limits evaluation to a prefix of the dataset (0 = all);
	// the paper samples 10% of the validation set during fine-grained
	// characterization for the same reason (§6.6).
	MaxSamples int
}

// evaluate is the one evaluation loop, the only place that knows how a
// dataset is walked for scoring: the first total samples (opt.MaxSamples caps
// them), in order, as serial batches of EvalBatch through Forward under
// opt.Hook, with the weights corrupted by opt.Corrupt for the duration. A
// task supplies gather, which assembles the samples at idx into an input
// tensor and returns the function that scores the network's output for them.
// It returns how many samples were evaluated.
func (n *Network) evaluate(total int, opt EvalOptions, gather func(idx []int) (x *tensor.Tensor, score func(out *tensor.Tensor))) int {
	if opt.Corrupt != nil {
		restore := opt.Corrupt(n)
		defer restore()
	}
	if opt.MaxSamples > 0 && opt.MaxSamples < total {
		total = opt.MaxSamples
	}
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	for start := 0; start < total; start += EvalBatch {
		x, score := gather(idx[start:min(start+EvalBatch, total)])
		score(n.Forward(x, false, opt.Hook))
	}
	return total
}

// Accuracy evaluates top-1 classification accuracy on ds.
func (n *Network) Accuracy(ds *dataset.Dataset, opt EvalOptions) float64 {
	correct := 0
	total := n.evaluate(ds.Len(), opt, func(idx []int) (*tensor.Tensor, func(*tensor.Tensor)) {
		x, labels := ds.Batch(idx)
		return x, func(logits *tensor.Tensor) { correct += countCorrect(logits, labels) }
	})
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}
