package dnn

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// batchInputs builds n deterministic input tensors for spec-shaped models.
func batchInputs(n int, net *Network, seed uint64) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(1, net.InC, net.InH, net.InW)
		xs[i].FillUniform(rng, -1, 1)
	}
	return xs
}

// TestForwardBatchHookFor checks that per-sample hooks receive their own
// sample index and see the right input.
func TestForwardBatchHookFor(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(4)
	net, err := BuildModel("LeNet")
	if err != nil {
		t.Fatal(err)
	}
	xs := batchInputs(8, net, 0x500)
	seen := make([]int32, len(xs))
	outs := net.ForwardBatch(xs, BatchOptions{
		HookFor: func(sample int) IFMHook {
			// Each returned hook closes over its own counter; the shared
			// seen slice is written once per sample at disjoint indices.
			first := true
			return func(i int, l Layer, x *tensor.Tensor) *tensor.Tensor {
				if first {
					first = false
					seen[sample] = 1
					if x != xs[sample] {
						t.Errorf("sample %d hooked with wrong input", sample)
					}
				}
				return x
			}
		},
	})
	if len(outs) != len(xs) {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("sample %d hook never ran", i)
		}
	}
}

// TestParallelTrainingBitIdentical pins the stronger property the model
// cache relies on: full training (forward, backward, SGD) produces
// bit-identical weights at any worker count, because every parallel kernel
// preserves the serial accumulation order.
func TestParallelTrainingBitIdentical(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	train := func(workers int) *Network {
		parallel.SetWorkers(workers)
		full := tinyPatterns(64)
		net, err := BuildModel("LeNet")
		if err != nil {
			t.Fatal(err)
		}
		TrainClassifier(net, full, TrainOptions{Epochs: 1, Batch: 8, LR: 0.01, Seed: 42})
		return net
	}
	ref := train(1)
	par := train(4)
	rs, ps := ref.StateTensors(), par.StateTensors()
	for i := range rs {
		for j := range rs[i].T.Data {
			if rs[i].T.Data[j] != ps[i].T.Data[j] {
				t.Fatalf("tensor %s element %d: %v != %v after parallel training",
					rs[i].Name, j, ps[i].T.Data[j], rs[i].T.Data[j])
			}
		}
	}
}
