// Package parallel provides the bounded worker pool used to fan
// independent partitioning configurations out across cores: degrees in the
// budget exploration, (PPS × degree) pairs in the experiment sweeps, and
// ablation configs. Results are always delivered in task-index order and
// the error reported is the one of the lowest-indexed failing task, so the
// outcome is deterministic regardless of the core count or scheduling.
//
// The width is read, not set: it is runtime.GOMAXPROCS(0), the number of
// cores that can execute at once. GOMAXPROCS=1 gives the sequential run.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the goroutine count ForEach uses for a number of tasks:
// min(GOMAXPROCS, tasks), and at least 1.
func Workers(tasks int) int {
	return max(1, min(runtime.GOMAXPROCS(0), tasks))
}

// ForEach runs fn(i) for every i in [0, n) on Workers(n) goroutines; with
// one it runs sequentially on the calling goroutine, in index order,
// stopping at the first error.
//
// In the parallel case every task is attempted even after a failure, and
// the returned error is that of the lowest-indexed failing task — the same
// error a sequential run would surface — so callers observe deterministic
// first-error propagation under any scheduling.
func ForEach(n int, fn func(i int) error) error {
	if w := Workers(n); w > 1 {
		return forEachParallel(n, w, fn)
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

func forEachParallel(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
