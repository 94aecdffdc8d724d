package dnn

import (
	"testing"

	"repro/internal/compute"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// setBackend installs b as the process-wide compute backend for the rest of
// the test and restores the previous one afterwards.
func setBackend(t testing.TB, b compute.Backend) {
	t.Helper()
	prev := compute.Default()
	compute.SetDefault(b)
	t.Cleanup(func() { compute.SetDefault(prev) })
}

// TestBackendsBitIdenticalOnZoo pins the acceptance contract of the
// pluggable compute layer: for every zoo architecture, a forward pass on
// the Gemm backend produces exactly the bits the Ref backend produces, at
// several worker counts. Deterministically initialized (untrained)
// networks exercise the same kernel shapes as trained ones, so this
// covers the full architecture inventory cheaply.
func TestBackendsBitIdenticalOnZoo(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, spec := range Zoo {
		t.Run(spec.Name, func(t *testing.T) {
			net, err := BuildModel(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			rng := tensor.NewRNG(0xB17)
			x := tensor.New(2, net.InC, net.InH, net.InW)
			x.FillUniform(rng, -1, 1)

			parallel.SetWorkers(1)
			setBackend(t, compute.Ref)
			want := net.Forward(x, false, nil)

			// The quantized backend is not bit-identical to Ref (its
			// deliberate numeric contract); it is instead held
			// bit-identical to itself across worker counts below.
			parallel.SetWorkers(1)
			setBackend(t, compute.QGemm)
			wantQ := net.Forward(x, false, nil)

			for _, w := range []int{1, 4} {
				parallel.SetWorkers(w)
				for _, b := range []compute.Backend{compute.Ref, compute.Gemm, compute.QGemm} {
					ref := want
					if b == compute.QGemm {
						ref = wantQ
					}
					setBackend(t, b)
					got := net.Forward(x, false, nil)
					if !got.Shape().Equal(ref.Shape()) {
						t.Fatalf("%s workers=%d: shape %v != %v", b.Name(), w, got.Shape(), ref.Shape())
					}
					for i := range ref.Data {
						if got.Data[i] != ref.Data[i] {
							t.Fatalf("%s workers=%d: output[%d] = %v, want %v (bit-exact)",
								b.Name(), w, i, got.Data[i], ref.Data[i])
						}
					}
				}
			}
		})
	}
}

// countingBackend counts the kernel calls that reach it.
type countingBackend struct {
	compute.Backend
	calls int
}

func (c *countingBackend) Conv2D(in, w, bias *tensor.Tensor, p tensor.Conv2DParams) *tensor.Tensor {
	c.calls++
	return c.Backend.Conv2D(in, w, bias, p)
}

func (c *countingBackend) MatMulTransB(a, b *tensor.Tensor) *tensor.Tensor {
	c.calls++
	return c.Backend.MatMulTransB(a, b)
}

// TestDefaultBackendReachesEveryLayer checks that compute.SetDefault alone
// selects the kernels of every Conv and FC, through the composite blocks
// too: one forward makes exactly one call per kernel-invoking layer on the
// installed backend.
func TestDefaultBackendReachesEveryLayer(t *testing.T) {
	net, err := BuildModel("ResNet101") // deepest composite nesting in the zoo
	if err != nil {
		t.Fatal(err)
	}
	layers := 0
	walkLayers(net.Layers, func(l Layer) {
		switch l.(type) {
		case *Conv, *FC:
			layers++
		}
	})
	if layers == 0 {
		t.Fatal("walker found no kernel-invoking layers")
	}
	counting := &countingBackend{Backend: compute.Ref}
	setBackend(t, counting)
	net.Forward(tensor.New(1, net.InC, net.InH, net.InW), false, nil)
	if counting.calls != layers {
		t.Fatalf("%d kernel calls reached the default backend, want one per Conv/FC = %d", counting.calls, layers)
	}
}
