package serve

import (
	"context"
	"sync"
	"syscall"
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

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkServeVGGParked is the vgg_batched workload as a go test
// benchmark: VGG-16 on Config{} (MaxBatch 16, work-conserving) under 32
// closed-loop callers, so two full batches are always waiting or computing.
// Beside req/s it reports the mean batch and how many CPUs the process kept
// busy (CPU time over wall time) — the idle inside the passes in flight,
// which the end-to-end benchmark shows only as cpu_ms_per_op × qps. One
// operation is 64 requests from every caller, so `make bench`'s single
// iteration is 2048 requests, not one.
func BenchmarkServeVGGParked(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	m := deployUniform(b, s, "VGG-16", quant.Int8, 1e-4)
	in := benchInput("VGG-16")
	const callers, perCaller = 32, 64
	drive := func(perCaller int) {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < perCaller; r++ {
					if _, err := m.Predict(context.Background(), in, uint64(c*perCaller+r)); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	drive(8) // every pooled clone has built its weak-cell caches
	warm := m.Stats()
	b.ResetTimer()
	start, cpu := time.Now(), cpuTime(b)
	drive(b.N * perCaller)
	b.StopTimer()
	wall, st := time.Since(start), m.Stats()
	b.ReportMetric(float64(st.Requests-warm.Requests)/wall.Seconds(), "req/s")
	b.ReportMetric(float64(st.Requests-warm.Requests)/float64(st.Batches-warm.Batches), "req/batch")
	b.ReportMetric((cpuTime(b)-cpu).Seconds()/wall.Seconds(), "cpus-busy")
}
