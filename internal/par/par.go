// Package par holds the one Parallelism rule and the one worker pool of
// the module. core, fleet and shapley resolve their Parallelism knobs
// with Workers (the vmpower facade passes its own to core) and fan their
// work out with For, so a setting means the same thing everywhere.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers maps a Parallelism setting to a worker count: 0 runs serial
// (1 worker, the paper's single-threaded pipeline), negative uses all
// cores (runtime.GOMAXPROCS(0)), and p >= 1 uses p workers.
func Workers(p int) int {
	switch {
	case p == 0:
		return 1
	case p < 0:
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// For calls do(i) for every i in [0, n) on at most workers goroutines,
// the calling one among them, and returns when every call has. With one
// worker (or one index) the caller runs every index in order and no
// goroutine is started. Otherwise index 0 is the caller's and the rest
// go to whichever goroutine claims them first from a shared counter, so
// a worker that wakes late takes whatever is left. do must be safe to
// run concurrently for distinct indices; a result that depends only on
// i is the same at any worker count.
func For(n, workers int, do func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(1)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			do(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	do(0)
	work()
	wg.Wait()
}
