package shapley

import (
	"fmt"

	"vmpower/internal/par"
	"vmpower/internal/vm"
)

// Parallelism semantics, shared by every parallel entry point in this
// package (TabulateParallelInto and MCOptions.Parallelism), are
// par.Workers': 0 runs serial on the calling goroutine, negative uses all
// cores (GOMAXPROCS), p >= 1 uses p workers, the caller among them.
//
// Results are bit-for-bit identical for any parallelism value: the work
// is decomposed into shards (tabulation) or sampling units (Monte Carlo)
// whose layout depends only on the game and the seed (never on the
// worker count or GOMAXPROCS), each is computed in a fixed internal
// order, and partials are merged in index order. Workers only race for
// *which* shard, or stride of units, to take next, never for how one is
// computed or merged.
//
// Thread-safety contract: the parallel entry points call the WorthFunc
// concurrently from multiple goroutines. A WorthFunc passed to them must
// be safe for concurrent calls and pure (same coalition → same value for
// the duration of the call). core's Monte-Carlo worth satisfies both by
// only reading an immutable compiled vhc.Plan; its audit reference goes
// through a trained vhc.Approximator, which serialises access with an
// RWMutex and is read-only during estimation. The serial entry points
// (Exact, Tabulate, ExactFromTable, and the parallel ones at one worker)
// never call the WorthFunc from more than one goroutine.

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

// TabulateParallelInto evaluates worth over all 2^n coalitions into a
// caller-owned table of length exactly 2^n using up to parallelism
// workers. Each table entry is written by exactly one shard, so the
// result is identical to Tabulate for a pure worth function. worth must
// be safe for concurrent calls when parallelism asks for more than one
// worker (see the package's thread-safety contract above).
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
	if w := par.Workers(parallelism); w > 1 && shards > 1 {
		par.For(shards, w, func(shard int) {
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
