package dnn

import (
	"testing"

	"repro/internal/tensor"
)

func TestPruneMagnitudeSparsity(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(1))
	if s := net.Sparsity(); s > 0.01 {
		t.Fatalf("fresh network sparsity %v", s)
	}
	zeroed := PruneMagnitude(net, 0.5)
	if zeroed == 0 {
		t.Fatal("pruning zeroed nothing")
	}
	s := net.Sparsity()
	if s < 0.40 || s > 0.60 {
		t.Fatalf("sparsity after 50%% prune = %v", s)
	}
}

func TestPruneKeepsLargeWeights(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(2))
	// Plant a known large weight; it must survive aggressive pruning.
	p := net.Params()[0]
	p.W.Data[0] = 100
	PruneMagnitude(net, 0.9)
	if p.W.Data[0] != 100 {
		t.Fatal("pruning removed the largest weight")
	}
}

func TestPruneSkipsBiases(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(3))
	var bias *Param
	for _, p := range net.Params() {
		if p.Name == "conv1.bias" {
			bias = p
		}
	}
	if bias == nil {
		t.Fatal("no bias found")
	}
	saved := append([]float32(nil), bias.W.Data...)
	PruneMagnitude(net, 0.9)
	for i := range saved {
		if bias.W.Data[i] != saved[i] {
			t.Fatal("pruning altered a bias")
		}
	}
}

func TestPruneZeroFracIsNoop(t *testing.T) {
	net := buildLeNet(tensor.NewRNG(4))
	if PruneMagnitude(net, 0) != 0 {
		t.Fatal("zero-fraction prune did something")
	}
}

func TestModeratePruningKeepsAccuracy(t *testing.T) {
	m := pretrained(t, "LeNet")
	net := m.CloneNet()
	PruneMagnitude(net, 0.10)
	acc := net.Accuracy(m.ValSet, EvalOptions{})
	if acc < m.BaselineAcc-0.15 {
		t.Fatalf("10%% pruning dropped accuracy from %v to %v", m.BaselineAcc, acc)
	}
}
