//go:build race

package compute

// raceEnabled reports whether the race detector is built in. Under it
// sync.Pool drops a quarter of its Puts at random, so what a kernel that
// draws pooled slabs allocates cannot be pinned.
const raceEnabled = true
