package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// benchInput returns one deterministic input for a model.
func benchInput(name string) []float32 {
	tm := dnn.MustPretrained(name)
	x := tensor.New(1, tm.Net.InC, tm.Net.InH, tm.Net.InW)
	x.FillUniform(tensor.NewRNG(0xBE7C), -1, 1)
	return x.Data
}

// benchServe measures served requests/sec at a batching configuration.
func benchServe(b *testing.B, model string, maxBatch int) {
	s := New(Config{MaxBatch: maxBatch, MaxLatency: time.Millisecond})
	defer s.Close()
	m := deployUniform(b, s, model, quant.Int8, 1e-4)
	in := benchInput(model)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		seed := uint64(0)
		for pb.Next() {
			seed++
			if _, err := m.Predict(context.Background(), in, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if d := time.Since(start); d > 0 {
		b.ReportMetric(float64(b.N)/d.Seconds(), "req/s")
	}
}

func BenchmarkServeSingle(b *testing.B) { benchServe(b, "LeNet", 1) }

func BenchmarkServeBatch16(b *testing.B) {
	b.SetParallelism(4) // 4×GOMAXPROCS clients keep the micro-batcher fed
	benchServe(b, "LeNet", 16)
}
