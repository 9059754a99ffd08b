package shapley

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vmpower/internal/vm"
)

// Parallelism semantics, shared by every parallel entry point in this
// package (TabulateParallelInto and MCOptions.Parallelism):
//
//	p <= 0 — use runtime.GOMAXPROCS(0) workers ("all cores")
//	p == 1 — evaluate on the calling goroutine, no workers spawned
//	p >= 2 — use exactly p workers
//
// Results are bit-for-bit identical for any parallelism value: the work
// is decomposed into shards whose layout depends only on the game (never
// on the worker count or GOMAXPROCS), each shard is reduced in a fixed
// internal order, and shard partials are merged in shard-index order.
// Workers only race for *which* shard to pull next, never for how a
// shard is computed or merged.
//
// Thread-safety contract: the parallel entry points call the WorthFunc
// concurrently from multiple goroutines. A WorthFunc passed to them must
// be safe for concurrent calls and pure (same coalition → same value for
// the duration of the call). core's Monte-Carlo worth satisfies both by
// only reading an immutable compiled vhc.Plan; its audit reference goes
// through a trained vhc.Approximator, which serialises access with an
// RWMutex and is read-only during estimation. The serial entry points
// (Exact, Tabulate, ExactFromTable, MonteCarlo with Parallelism == 1)
// never call the WorthFunc from more than one goroutine.

// resolveParallelism maps the user-facing knob to a worker count.
func resolveParallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// exactMaxShards bounds the shard count of the mask-space decomposition.
// 256 shards keep the per-shard partial vectors tiny while leaving
// plenty of shards per worker for load balancing at any realistic core
// count.
const exactMaxShards = 256

// exactShards returns the shard count for an n-player mask space. It
// depends only on n so the decomposition — and therefore the floating-
// point merge order — is identical at every parallelism.
func exactShards(n int) int {
	total := 1 << uint(n)
	if total < exactMaxShards {
		return total
	}
	return exactMaxShards
}

// runSharded executes fn(shard) for every shard in [0, shards) on up to
// parallelism workers. Shard assignment is dynamic (an atomic counter),
// which is safe because every shard's output slot is private to it.
func runSharded(shards, parallelism int, fn func(shard int)) {
	workers := resolveParallelism(parallelism)
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(s)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(atomic.AddInt64(&next, 1)) - 1
				if s >= shards {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}

// TabulateParallelInto evaluates worth over all 2^n coalitions into a
// caller-owned table of length exactly 2^n using up to parallelism
// workers. Each table entry is written by exactly one shard, so the
// result is identical to Tabulate for a pure worth function. worth must
// be safe for concurrent calls when parallelism != 1 (see the package's
// thread-safety contract above).
func TabulateParallelInto(table []float64, n int, worth WorthFunc, parallelism int) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if worth == nil {
		return ErrNilWorth
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	m := metrics()
	start := m.startTimer()
	shards := exactShards(n)
	per := len(table) / shards
	if resolveParallelism(parallelism) > 1 && shards > 1 {
		runSharded(shards, parallelism, func(shard int) {
			lo := shard * per
			hi := lo + per
			for s := lo; s < hi; s++ {
				table[s] = worth(vm.Coalition(s))
			}
		})
	} else {
		// Same writes in the same per-entry order, without the closure
		// allocation the sharded dispatch would cost a serial caller.
		for s := range table {
			table[s] = worth(vm.Coalition(s))
		}
	}
	m.observeTabulate(start)
	return nil
}
