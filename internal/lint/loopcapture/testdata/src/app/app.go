// Package app exercises loopcapture's two rules from both launch sites
// (go statements and the parallel pool).
package app

import "parallel"

// GoCapture indexes by a captured loop variable: per-iteration under go
// 1.22, so each goroutine owns its cell.
func GoCapture(xs []int, out []int) {
	for i := range xs {
		go func() {
			out[i] = xs[i] * 2
		}()
	}
}

// GoParam passes the loop value in: each task owns its copy.
func GoParam(xs []int, out []int) {
	for i := range xs {
		go func(i int) {
			out[i] = xs[i] * 2
		}(i)
	}
}

// PoolCapturesLoopVar hands the pool a closure over an outer loop's
// variable, which alone is enough to own a cell.
func PoolCapturesLoopVar(batches [][]int, sums []int) {
	for b := range batches {
		parallel.For(1, func(int) {
			for _, v := range batches[b] {
				sums[b] += v
			}
		})
	}
}

// SharedCellWrite accumulates into one captured cell from every task.
func SharedCellWrite(xs []int) int {
	total := make([]int, 1)
	parallel.For(len(xs), func(i int) {
		total[0] += xs[i] // want "pool task writes captured slice total at an index with no task-local component"
	})
	return total[0]
}

// IndexOwned is the contract shape: every write lands at the task's own
// index.
func IndexOwned(xs []int) []int {
	out := make([]int, len(xs))
	parallel.For(len(xs), func(i int) {
		out[i] = xs[i] * 2
	})
	return out
}

// OffsetOwned derives the cell from task-local state plus a captured
// base: still owned, still allowed.
func OffsetOwned(xs []int, out []int, base int) {
	parallel.For(len(xs), func(i int) {
		j := base + i
		out[j] = xs[i]
	})
}

// MapWrite writes a captured map from concurrent tasks.
func MapWrite(xs []int) map[int]int {
	seen := make(map[int]int)
	parallel.For(len(xs), func(i int) {
		seen[xs[i]]++ // want "pool task writes captured map seen"
	})
	return seen
}

// LocalMap builds a task-local map; nothing shared, nothing flagged.
func LocalMap(xs []int) {
	parallel.For(len(xs), func(i int) {
		local := make(map[int]int)
		local[xs[i]]++
		_ = local
	})
}
