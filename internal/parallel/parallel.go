// Package parallel provides the OpenMP-style loop parallelism the paper's
// kernels use ("#pragma omp for thread-level parallelism", Sec. III-B).
// All six benchmarks parallelize across independent work items (options,
// paths, simulations), so a parallel-for with static, dynamic, or guided
// chunking plus a tree-free reduction covers every need.
//
// Like an OpenMP runtime — and unlike the package's original
// goroutine-per-region implementation — the loops execute on a persistent
// fork-join worker pool (see pool.go): workers are started lazily on first
// use and then parked between regions, so a small-batch region pays a
// wake-up, not goroutine creation. The decomposition semantics are
// unchanged from the spawn-per-call version: the same [lo,hi) chunks in
// the same slot order, dense worker ids, and reductions combined in worker
// order, so kernel outputs are bit-identical for a fixed worker count.
package parallel

import (
	"runtime"
	"sync/atomic"

	"finbench/internal/perf"
)

// Workers returns the worker count used by For: GOMAXPROCS, the Go
// analogue of OMP_NUM_THREADS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Run is the pool's raw fork-join primitive: it executes fn once per slot
// in [0, slots), from multiple goroutines, and returns when every slot has
// completed. Slot 0 runs on the calling goroutine; the remaining slots are
// handed to parked pool workers without spawning. Slots may exceed the
// worker count — excess tasks queue and run as workers (or the caller,
// which helps while joining) free up. Nested Run calls are safe. A nil fn
// or slots <= 0 is a no-op.
func Run(slots int, fn func(slot int)) {
	if slots <= 0 || fn == nil {
		return
	}
	defaultPool.run(slots, fn)
}

// For runs fn over [0,n) split into one contiguous chunk per worker
// (OpenMP schedule(static)). fn is called with disjoint [lo,hi) ranges
// from multiple goroutines; For returns when all complete. A nil fn or
// n <= 0 is a no-op.
func For(n int, fn func(lo, hi int)) {
	ForWorkers(n, Workers(), fn)
}

// ForWorkers is For with an explicit worker count (used to model a given
// thread count, and by tests).
func ForWorkers(n, workers int, fn func(lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		defaultPool.serial.Add(1)
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	slots := (n + chunk - 1) / chunk
	defaultPool.run(slots, func(slot int) {
		lo := slot * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// ForDynamic runs fn over [0,n) in grain-sized chunks handed out from a
// shared counter (OpenMP schedule(dynamic, grain)); use it when per-item
// cost is irregular, e.g. PSOR solves whose iteration counts vary by
// option. grain <= 0 selects an automatic grain (see autoGrain) that
// targets several chunks per worker while keeping the handout counter off
// the critical path.
func ForDynamic(n, grain int, fn func(lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	workers := Workers()
	if grain <= 0 {
		grain = autoGrain(n, workers)
	}
	if workers*grain > n {
		workers = (n + grain - 1) / grain
	}
	if workers <= 1 {
		defaultPool.serial.Add(1)
		fn(0, n)
		return
	}
	var next int64
	defaultPool.run(workers, func(int) {
		for {
			lo := int(atomic.AddInt64(&next, int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	})
}

// autoGrain picks the dynamic-schedule grain when the caller passes
// grain <= 0: roughly eight chunks per worker — fine enough to balance
// irregular items, coarse enough that the shared counter is touched O(8w)
// times — clamped to [1, 4096].
func autoGrain(n, workers int) int {
	g := n / (workers * 8)
	if g < 1 {
		g = 1
	}
	if g > 4096 {
		g = 4096
	}
	return g
}

// ForGuided runs fn over [0,n) with OpenMP schedule(guided, grain): each
// handout takes remaining/workers items (never fewer than grain), so early
// chunks are large and the tail is balanced at fine grain. Use it for
// workloads whose per-item cost shrinks or grows monotonically (e.g.
// decreasing tree depths), where dynamic wastes handouts early and static
// leaves the tail unbalanced.
func ForGuided(n, grain int, fn func(lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	workers := Workers()
	if workers > (n+grain-1)/grain {
		workers = (n + grain - 1) / grain
	}
	if workers <= 1 {
		defaultPool.serial.Add(1)
		fn(0, n)
		return
	}
	var next int64
	defaultPool.run(workers, func(int) {
		for {
			cur := atomic.LoadInt64(&next)
			if cur >= int64(n) {
				return
			}
			rem := int64(n) - cur
			chunk := rem / int64(workers)
			if chunk < int64(grain) {
				chunk = int64(grain)
			}
			if chunk > rem {
				chunk = rem
			}
			if !atomic.CompareAndSwapInt64(&next, cur, cur+chunk) {
				continue // another worker took a handout; recompute
			}
			fn(int(cur), int(cur+chunk))
		}
	})
}

// ForIndexed runs fn once per worker with (worker, lo, hi), for kernels
// that need per-worker scratch state such as an RNG stream per thread.
// It uses static chunking; worker ids are dense in [0, workers).
func ForIndexed(n int, fn func(worker, lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		defaultPool.serial.Add(1)
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	slots := (n + chunk - 1) / chunk
	defaultPool.run(slots, func(slot int) {
		lo := slot * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(slot, lo, hi)
	})
}

// ForIndexedMerged is ForIndexed for counted kernels: fn receives a
// private perf.Counts per worker chunk, and the partials are merged into c
// in worker order after the loop completes — the accumulate pattern every
// kernel package previously hand-rolled with a mutex. Merging in slot
// order (not completion order) keeps the merged state deterministic, and
// the lock disappears from the worker path entirely. A nil c runs fn with
// nil counts (counting disabled), preserving the kernels' uncounted fast
// path; the chunks are ForIndexed's either way.
func ForIndexedMerged(n int, c *perf.Counts, fn func(worker, lo, hi int, c *perf.Counts)) {
	if n <= 0 || fn == nil {
		return
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		defaultPool.serial.Add(1)
		fn(0, 0, n, c)
		return
	}
	chunk := (n + workers - 1) / workers
	slots := (n + chunk - 1) / chunk
	var locals []perf.Counts
	if c != nil {
		locals = make([]perf.Counts, slots)
	}
	defaultPool.run(slots, func(slot int) {
		lo := slot * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		var local *perf.Counts
		if locals != nil {
			local = &locals[slot]
		}
		fn(slot, lo, hi, local)
	})
	for i := range locals {
		c.Merge(locals[i])
	}
}

// ReduceFloat64 computes the sum of fn over per-worker ranges: each worker
// returns a partial value for its [lo,hi) range, and the partials are
// summed in worker order, keeping the result deterministic for a fixed
// worker count.
func ReduceFloat64(n int, fn func(lo, hi int) float64) float64 {
	if n <= 0 || fn == nil {
		return 0
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		defaultPool.serial.Add(1)
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	slots := (n + chunk - 1) / chunk
	// Pad partial slots to separate cache lines to avoid false sharing.
	const pad = 8
	partials := make([]float64, slots*pad)
	defaultPool.run(slots, func(slot int) {
		lo := slot * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		partials[slot*pad] = fn(lo, hi)
	})
	var sum float64
	for k := 0; k < slots; k++ {
		sum += partials[k*pad]
	}
	return sum
}
