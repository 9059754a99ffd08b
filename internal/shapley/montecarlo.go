package shapley

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"vmpower/internal/vm"
)

// MCOptions configures the Monte-Carlo permutation-sampling estimator.
type MCOptions struct {
	// Permutations is the number of random player orderings to sample.
	// If TargetStdErr > 0 it is treated as the maximum; otherwise it is
	// exact. Defaults to DefaultPermutations when zero. With Antithetic
	// set the budget is rounded up to a whole number of pairs.
	Permutations int

	// TargetStdErr, when positive, stops sampling early once the largest
	// per-player standard error of the estimate falls below it (checked
	// in batches of 32 sampling units, after a minimum of 64; a unit is
	// one permutation, or one pair when Antithetic is set).
	TargetStdErr float64

	// Antithetic pairs every sampled permutation with its reverse. The
	// reverse of a uniform random permutation is also uniform, and for
	// games with monotone position effects (early joiners pay the
	// machine's wake-up costs, late joiners ride contention discounts)
	// the paired marginals are negatively correlated, cutting variance
	// at no extra worth-function cost. Each pair counts as two
	// permutations toward the budget, and the reported StdErr is
	// computed over pair averages — the two halves of a pair are
	// deliberately dependent, so treating them as independent samples
	// would misstate the error (usually understating it, firing
	// TargetStdErr too soon).
	Antithetic bool

	// Seed seeds the sampling. The estimator never touches the global
	// math/rand state. Every sampled unit draws from its own PRNG stream
	// derived from Seed and the unit index, so a fixed Seed reproduces
	// the exact estimate regardless of Parallelism or GOMAXPROCS.
	Seed int64

	// Parallelism is the worker count used to evaluate sampled
	// permutations: <= 0 uses all cores (GOMAXPROCS), 1 runs on the
	// calling goroutine, >= 2 uses that many workers. The result is
	// bit-for-bit identical at every setting; see the package
	// thread-safety contract in parallel.go for what the WorthFunc must
	// guarantee when Parallelism != 1.
	Parallelism int

	// NoWorthCache disables the memoizing worth cache. By default the
	// estimator caches worths of very small and near-grand coalitions,
	// which repeat across permutation prefixes (there are only C(n, k)
	// coalitions of size k, so prefixes of size 0–3 and n−3–n recur
	// constantly while mid-size prefixes almost never do). Caching
	// assumes the WorthFunc is pure; set NoWorthCache for worth
	// functions with observable side effects.
	NoWorthCache bool
}

// DefaultPermutations is the sample count used when MCOptions.Permutations
// is zero. 200 permutations give ~2–3% error on the paper-scale games.
const DefaultPermutations = 200

// MCResult carries a Monte-Carlo Shapley estimate with uncertainty.
type MCResult struct {
	// Phi is the estimated Shapley value per player.
	Phi []float64
	// StdErr is the per-player standard error of Phi, computed over
	// independent sampling units (permutations, or antithetic pairs).
	StdErr []float64
	// Permutations is the number of orderings actually sampled.
	Permutations int
}

// cacheSizeMargin is the coalition-size band the worth cache covers:
// coalitions with |S| <= margin or |S| >= n − margin are cached. The
// band keeps the cache bounded by Σ_{k<=margin} 2·C(n, k) entries.
const cacheSizeMargin = 3

// worthCache memoizes a pure WorthFunc over the coalition-size band
// where permutation prefixes actually collide. It is safe for
// concurrent use; two workers racing to fill the same entry both
// compute the same value (purity), so last-write-wins is benign.
type worthCache struct {
	worth WorthFunc
	n     int
	mu    sync.RWMutex
	m     map[vm.Coalition]float64

	// hits/misses count lookups in the cacheable size band; MonteCarlo
	// folds them into the package metrics after the solve so the hot
	// path touches only these local atomics.
	hits   atomic.Uint64
	misses atomic.Uint64
}

func newWorthCache(n int, worth WorthFunc) *worthCache {
	return &worthCache{worth: worth, n: n, m: make(map[vm.Coalition]float64)}
}

func (c *worthCache) eval(s vm.Coalition) float64 {
	size := s.Size()
	if size > cacheSizeMargin && size < c.n-cacheSizeMargin {
		return c.worth(s)
	}
	c.mu.RLock()
	v, ok := c.m[s]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v = c.worth(s)
	c.mu.Lock()
	c.m[s] = v
	c.mu.Unlock()
	return v
}

// unitSeed derives the PRNG seed of sampling unit k from the user seed
// (splitmix64 finalizer): statistically independent streams that depend
// only on (seed, k), never on worker identity.
func unitSeed(seed int64, k int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(uint64(k)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// MonteCarlo estimates the Shapley value by sampling random permutations
// of the players and averaging each player's marginal contribution in the
// sampled order. Each sampled permutation's contributions sum to exactly
// v(N) − v(∅), so the estimate satisfies Efficiency exactly (not just in
// expectation); Symmetry and Dummy hold in expectation.
//
// The worth function is called n+1 times per permutation (fewer with the
// memoizing cache, see MCOptions.NoWorthCache). Sampling units are
// evaluated by up to MCOptions.Parallelism workers and reduced in unit
// order, so the estimate is a pure function of (game, MCOptions.Seed).
func MonteCarlo(n int, worth WorthFunc, opts MCOptions) (*MCResult, error) {
	if n < 1 || n > vm.MaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if worth == nil {
		return nil, ErrNilWorth
	}
	perms := opts.Permutations
	if perms <= 0 {
		perms = DefaultPermutations
	}
	// A sampling unit is one permutation, or one antithetic pair.
	walksPerUnit := 1
	totalUnits := perms
	if opts.Antithetic {
		walksPerUnit = 2
		totalUnits = (perms + 1) / 2
	}

	met := metrics()
	start := met.startTimer()
	eval := worth
	var cache *worthCache
	if !opts.NoWorthCache && n > 1 {
		cache = newWorthCache(n, worth)
		eval = cache.eval
	}

	walk := func(ord []int, out []float64, scale float64) {
		prefix := vm.EmptyCoalition
		prev := eval(prefix)
		for _, p := range ord {
			prefix = prefix.With(vm.ID(p))
			cur := eval(prefix)
			out[p] += scale * (cur - prev)
			prev = cur
		}
	}

	// unit samples unit k with rng, a worker's own generator. Seeding
	// resets the source completely, so the unit draws exactly the stream
	// a fresh rand.NewSource(unitSeed(Seed, k)) would, without a ~5 KB
	// source allocation per unit.
	unit := func(k int, rng *rand.Rand, out []float64, order, reversed []int) {
		rng.Seed(unitSeed(opts.Seed, k))
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		if !opts.Antithetic {
			walk(order, out, 1)
			return
		}
		for i, p := range order {
			reversed[n-1-i] = p
		}
		walk(order, out, 0.5)
		walk(reversed, out, 0.5)
	}

	// evalRange evaluates units [lo, hi) into rows (row k−lo) using up to
	// Parallelism workers; rows are merged by the caller in unit order.
	evalRange := func(lo, hi int, rows []float64) {
		workers := resolveParallelism(opts.Parallelism)
		if workers > hi-lo {
			workers = hi - lo
		}
		if workers <= 1 {
			rng := rand.New(rand.NewSource(0))
			order := make([]int, n)
			reversed := make([]int, n)
			for k := lo; k < hi; k++ {
				unit(k, rng, rows[(k-lo)*n:(k-lo+1)*n], order, reversed)
			}
			return
		}
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(0))
				order := make([]int, n)
				reversed := make([]int, n)
				// Static strided assignment: unit k belongs to worker
				// k mod workers. Which goroutine computes a unit does
				// not matter — unit results depend only on (seed, k).
				for k := lo + w; k < hi; k += workers {
					unit(k, rng, rows[(k-lo)*n:(k-lo+1)*n], order, reversed)
				}
			}(w)
		}
		wg.Wait()
	}

	const (
		batch   = 32 // units between convergence checks
		minDone = 64 // units before the first check
	)
	sum := make([]float64, n)
	sumSq := make([]float64, n)
	done := 0 // units reduced so far
	for done < totalUnits {
		next := totalUnits
		if opts.TargetStdErr > 0 {
			// Stop-check boundaries are fixed unit counts (64, 96, 128,
			// …), so early stopping is as deterministic as the sums.
			if done < minDone {
				next = minDone
			} else {
				next = done + batch
			}
			if next > totalUnits {
				next = totalUnits
			}
		}
		rows := make([]float64, (next-done)*n)
		evalRange(done, next, rows)
		for k := done; k < next; k++ {
			row := rows[(k-done)*n : (k-done+1)*n]
			for i := 0; i < n; i++ {
				d := row[i]
				sum[i] += d
				sumSq[i] += d * d
			}
		}
		done = next
		if opts.TargetStdErr > 0 && done >= minDone && done < totalUnits {
			if maxStdErr(sum, sumSq, done) <= opts.TargetStdErr {
				break
			}
		}
	}

	res := &MCResult{
		Phi:          make([]float64, n),
		StdErr:       make([]float64, n),
		Permutations: done * walksPerUnit,
	}
	for i := 0; i < n; i++ {
		res.Phi[i] = sum[i] / float64(done)
		res.StdErr[i] = stdErr(sum[i], sumSq[i], done)
	}
	met.observeMC(start)
	met.noteMC(res, done < totalUnits, cache)
	return res, nil
}

// stdErr returns the standard error of a mean from unit-level sums: n
// independent sampling units with value sum/n and raw second moment
// sumSq.
func stdErr(sum, sumSq float64, n int) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	mean := sum / float64(n)
	variance := (sumSq - float64(n)*mean*mean) / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance / float64(n))
}

func maxStdErr(sum, sumSq []float64, n int) float64 {
	var m float64
	for i := range sum {
		if se := stdErr(sum[i], sumSq[i], n); se > m {
			m = se
		}
	}
	return m
}
