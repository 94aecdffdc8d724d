package compute_test

import (
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/dnn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestGemmBitIdenticalToRefOnZooBothVecPaths is internal/dnn's
// TestBackendsBitIdenticalOnZoo for the gemm backend with the vector
// primitives pinned on and then off: every zoo architecture must forward to
// Ref's bits either way, at several worker counts. It lives here because
// only this package's tests can reach the unexported switch; the dnn test
// keeps covering whichever path the host selects by itself.
func TestGemmBitIdenticalToRefOnZooBothVecPaths(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, spec := range dnn.Zoo {
		t.Run(spec.Name, func(t *testing.T) {
			net, err := dnn.BuildModel(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(2, net.InC, net.InH, net.InW)
			x.FillUniform(tensor.NewRNG(0xB17), -1, 1)

			parallel.SetWorkers(1)
			net.SetBackend(compute.Ref)
			want := net.Forward(x, false, nil)

			net.SetBackend(compute.Gemm)
			compute.ForEachVecPath(t, func(t *testing.T) {
				for _, w := range []int{1, 4} {
					parallel.SetWorkers(w)
					got := net.Forward(x, false, nil)
					if !got.Shape().Equal(want.Shape()) {
						t.Fatalf("workers=%d: shape %v != %v", w, got.Shape(), want.Shape())
					}
					for i := range want.Data {
						if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
							t.Fatalf("workers=%d: output[%d] = %v, want %v (bit-exact)", w, i, got.Data[i], want.Data[i])
						}
					}
				}
			})
		})
	}
}
