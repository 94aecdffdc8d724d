package tensor

import "math"

// RNG is a small deterministic SplitMix64-based random number generator.
// The repository avoids math/rand so that every experiment is reproducible
// from an explicit seed and independent of Go runtime changes.
//
// An RNG is single-goroutine state: its methods mutate the stream in place
// and must never be shared across concurrently running goroutines (the
// -race CI job enforces this). Parallel code that needs random draws gives
// each goroutine a generator of its own, seeded with a value fixed before
// the fan-out, so no stream depends on scheduling.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Float64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample via Box-Muller.
func (r *RNG) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// FillNormal fills t with N(0, std²) samples.
func (t *Tensor) FillNormal(r *RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.Norm() * std)
	}
}

// FillUniform fills t with uniform samples in [lo, hi).
func (t *Tensor) FillUniform(r *RNG, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + r.Float64()*(hi-lo))
	}
}
