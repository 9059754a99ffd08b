package shapley

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"vmpower/internal/vm"
)

// Parallelism semantics, shared by every parallel entry point in this
// package (TabulateParallelInto, RetabulateParallelInto,
// ExactFromTableParallelInto and MCOptions.Parallelism):
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
// the duration of the call). core's production worth satisfies both by
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

// RetabulateParallelInto re-evaluates only the table entries whose
// coalition intersects dirty, leaving every other entry untouched — the
// incremental cross-tick form of TabulateParallelInto. When table was
// produced by a (Re)Tabulate call against a pure worth function and only
// the states of the VMs in dirty changed since, the result is bit-for-bit
// identical to a full retabulation: an entry not intersecting dirty
// depends only on unchanged member states, so its cached value is exactly
// what worth would return. Callers whose worth carries cross-coalition
// state (e.g. the measured grand-coalition override) must fold the
// affected masks into dirty or rewrite those entries themselves.
//
// dirty == 0 is a no-op; the shard layout matches TabulateParallelInto,
// so the result is identical at any parallelism.
func RetabulateParallelInto(table []float64, n int, worth WorthFunc, dirty vm.Coalition, parallelism int) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if worth == nil {
		return ErrNilWorth
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	if dirty == 0 {
		return nil
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
				if vm.Coalition(s)&dirty != 0 {
					table[s] = worth(vm.Coalition(s))
				}
			}
		})
	} else {
		for s := range table {
			if vm.Coalition(s)&dirty != 0 {
				table[s] = worth(vm.Coalition(s))
			}
		}
	}
	m.observeTabulate(start)
	return nil
}

// ExactScratch returns the scratch length (shard partials) that
// ExactFromTableParallelInto needs for an n-player game.
func ExactScratch(n int) int {
	if n < 1 {
		return 0
	}
	return exactShards(n) * n
}

// ExactFromTableParallelInto computes the exact Shapley value from a
// pre-tabulated worth table with up to parallelism workers, into
// caller-owned buffers: phi of length exactly n and scratch of at least
// ExactScratch(n) (both zeroed here, so they can be reused across solves
// as-is). The mask space is split into exactShards(n) contiguous shards;
// each shard accumulates a private phi partial in ascending mask order
// and the partials are merged in shard order, so the output is
// bit-for-bit identical at every parallelism (it can differ from the
// serial ExactFromTable in the last ulps, since the summation is
// associated differently).
func ExactFromTableParallelInto(phi, scratch []float64, n int, table []float64, parallelism int) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	if len(phi) != n {
		return fmt.Errorf("shapley: phi has %d entries, want %d", len(phi), n)
	}
	if len(scratch) < ExactScratch(n) {
		return fmt.Errorf("shapley: scratch has %d entries, want >= %d", len(scratch), ExactScratch(n))
	}
	w, err := weightsShared(n)
	if err != nil {
		return err
	}
	m := metrics()
	start := m.startTimer()
	shards := exactShards(n)
	per := len(table) / shards
	partials := scratch[:shards*n]
	for i := range partials {
		partials[i] = 0
	}
	if resolveParallelism(parallelism) > 1 && shards > 1 {
		runSharded(shards, parallelism, func(shard int) {
			accumulateShard(partials, w, table, n, shard, per)
		})
	} else {
		// Identical shard decomposition executed on the calling
		// goroutine, so serial and parallel results share every bit.
		for shard := 0; shard < shards; shard++ {
			accumulateShard(partials, w, table, n, shard, per)
		}
	}
	for i := range phi {
		phi[i] = 0
	}
	for shard := 0; shard < shards; shard++ {
		part := partials[shard*n : (shard+1)*n]
		for i := 0; i < n; i++ {
			phi[i] += part[i]
		}
	}
	m.observeAccumulate(start)
	return nil
}

// accumulateShard folds one contiguous mask shard's weighted marginal
// contributions into its private partial vector, in ascending mask order.
// Each mask visits only its complement players, lowest first, with
// w[|s|] read once; every φ_i still receives the same terms in ascending
// mask order, so the partials match a loop over all n players bit for
// bit. The grand mask has no complement players (and w no entry n), so
// the shard holding it stops one short.
func accumulateShard(partials, w, table []float64, n, shard, per int) {
	phi := partials[shard*n : (shard+1)*n]
	full := uint32(1)<<uint(n) - 1
	lo := uint32(shard * per)
	hi := min(lo+uint32(per), full)
	for s := lo; s < hi; s++ {
		vs, ws := table[s], w[bits.OnesCount32(s)]
		for c := ^s & full; c != 0; c &= c - 1 {
			i := bits.TrailingZeros32(c)
			phi[i] += ws * (table[s|1<<uint(i)] - vs)
		}
	}
}
