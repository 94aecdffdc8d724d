package quant_test

import (
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/cpufeat"
	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/errormodel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// The test in this file runs the layer above the codecs — corrupted
// forward passes over the zoo — once with every assembly kernel on and once
// on the scalar bodies (cpufeat.SetVec) and demands the same bits from both.
// The root package's TestDeterminismMatrix holds the same surface, and the
// serving and cluster ones, to pinned CRCs.

// setBackend installs b as the process-wide compute backend for the rest of
// the test and restores the previous one afterwards.
func setBackend(t testing.TB, b compute.Backend) {
	t.Helper()
	prev := compute.Default()
	compute.SetDefault(b)
	t.Cleanup(func() { compute.SetDefault(prev) })
}

// forEachVecPath runs f as a subtest with the assembly kernels on and again
// on their scalar bodies, skipping the first where there are none.
func forEachVecPath(t *testing.T, f func(t *testing.T)) {
	for _, path := range []string{"vec", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "vec" && !cpufeat.X86.HasAVX2 {
				t.Skip("no vector kernels on this build or CPU")
			}
			t.Cleanup(cpufeat.SetVec(path == "vec"))
			f(t)
		})
	}
}

// onBothPaths runs f on each path and returns what it produced. Where
// there is no vector path the scalar result stands for both.
func onBothPaths[T any](t *testing.T, f func(t *testing.T) T) (vec, scalar T) {
	t.Helper()
	var got []T // vector first: forEachVecPath's order
	forEachVecPath(t, func(t *testing.T) { got = append(got, f(t)) })
	if len(got) == 0 {
		t.FailNow() // f failed on every path and has said why
	}
	return got[0], got[len(got)-1]
}

func assertSameBits(t *testing.T, desc string, vec, scalar []float32) {
	t.Helper()
	if len(vec) != len(scalar) || len(scalar) == 0 {
		t.Fatalf("%s: %d values on the vector path, %d on the scalar path", desc, len(vec), len(scalar))
	}
	for i := range scalar {
		if math.Float32bits(vec[i]) != math.Float32bits(scalar[i]) {
			t.Fatalf("%s: element %d is %v on the vector path, %v on the scalar path", desc, i, vec[i], scalar[i])
		}
	}
}

// TestCorruptedZooBitIdenticalOnBothVecPaths pushes every zoo architecture
// through corrupted weights and corrupted IFMs, on every backend and at
// every integer precision.
func TestCorruptedZooBitIdenticalOnBothVecPaths(t *testing.T) {
	for _, spec := range dnn.Zoo {
		net, err := dnn.BuildModel(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(2, net.InC, net.InH, net.InW)
		x.FillUniform(tensor.NewRNG(0xB17), -1, 1)
		for _, prec := range []quant.Precision{quant.Int16, quant.Int8, quant.Int4} {
			for _, be := range []compute.Backend{compute.Ref, compute.Gemm, compute.QGemm} {
				t.Run(spec.Name+"/"+prec.String()+"/"+be.Name(), func(t *testing.T) {
					vec, scalar := onBothPaths(t, func(t *testing.T) []float32 {
						setBackend(t, be)
						corr := eden.NewSoftwareDRAM(errormodel.Uniform(2e-3), prec)
						defer corr.CorruptWeights(net)()
						return net.Forward(x, false, corr.IFMHook()).Data
					})
					assertSameBits(t, "forward output", vec, scalar)
				})
			}
		}
	}
}
