// Package app exercises the per-task RNG stream rules.
package app

import (
	"parallel"
	"tensor"
)

// SharedDraw draws from the captured parent RNG in every task: the
// classic schedule-dependent-results bug.
func SharedDraw(rng *tensor.RNG, out []float64) {
	parallel.For(len(out), func(i int) {
		out[i] = rng.Float64() // want "draws from RNG rng, which is not a per-task stream"
	})
}

// CopiedShared hides the capture behind a local alias; the assignment
// check sees through it.
func CopiedShared(rng *tensor.RNG, out []float64) {
	parallel.For(len(out), func(i int) {
		r := rng
		out[i] = r.Float64() // want "draws from RNG r, which is not a per-task stream"
	})
}

// SplitInsideTask splits the shared parent from within the task, which
// mutates state every sibling reads.
func SplitInsideTask(rng *tensor.RNG, out []float64) {
	parallel.For(len(out), func(i int) {
		r := rng.Split()     // want "draws from RNG rng, which is not a per-task stream"
		out[i] = r.Float64() // want "draws from RNG r, which is not a per-task stream"
	})
}

// NestedShared binds the alias inside a closure nested in the task: the
// nested body is part of the task.
func NestedShared(rng *tensor.RNG, out []float64) {
	parallel.For(len(out), func(i int) {
		func() {
			r := rng
			out[i] = r.Float64() // want "draws from RNG r, which is not a per-task stream"
		}()
	})
}

// Rebound binds a local to the shared parent, then rebinds it to the
// task's stream. Every assignment counts, so the draw is reported: give
// the per-task stream a new name.
func Rebound(rng *tensor.RNG, out []float64) {
	streams := rng.SplitN(len(out))
	parallel.For(len(out), func(i int) {
		r := rng
		r = streams[i]
		out[i] = r.Float64() // want "draws from RNG r, which is not a per-task stream"
	})
}

// SplitNIdiom is the contract shape: split before the fan-out, index by
// task.
func SplitNIdiom(rng *tensor.RNG, out []float64) {
	streams := rng.SplitN(len(out))
	parallel.For(len(out), func(i int) {
		r := streams[i]
		out[i] = r.Float64()
	})
}

// DirectIndex draws from the indexed stream without a local binding.
func DirectIndex(rng *tensor.RNG, out []float64) {
	streams := rng.SplitN(len(out))
	parallel.For(len(out), func(i int) {
		out[i] = streams[i].Float64()
	})
}

// FreshPerTask seeds a new generator from the task index.
func FreshPerTask(out []float64) {
	parallel.For(len(out), func(i int) {
		r := tensor.NewRNG(uint64(i) + 1)
		out[i] = r.Float64()
	})
}

// ParamStream receives the stream as a task parameter (Do-style tasks
// built by a launcher that owns the split).
func ParamStream(rng *tensor.RNG, out []float64) {
	streams := rng.SplitN(len(out))
	run := func(i int, r *tensor.RNG) { out[i] = r.Float64() }
	for i := range out {
		i := i
		parallel.Do(func() { run(i, streams[i]) })
	}
}

// GoShared shows the go-statement launch site is covered too.
func GoShared(rng *tensor.RNG, done chan struct{}) {
	for i := 0; i < 4; i++ {
		go func() {
			_ = rng.Intn(10) // want "draws from RNG rng, which is not a per-task stream"
			done <- struct{}{}
		}()
	}
}

// SequentialUse outside any task closure is unconstrained.
func SequentialUse(rng *tensor.RNG, out []float64) {
	for i := range out {
		out[i] = rng.Float64()
	}
}
