//go:build race

package serve

// raceEnabled reports whether the race detector is built in. Under it
// sync.Pool drops a quarter of its Puts at random, so what a call that
// draws pooled buffers allocates cannot be pinned.
const raceEnabled = true
