package shapley

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vmpower/internal/vm"
)

// MCOptions configures the Monte-Carlo permutation-sampling estimator.
type MCOptions struct {
	// Permutations is the number of random player orderings to sample.
	// Defaults to DefaultPermutations when zero. With Antithetic set the
	// budget is rounded up to a whole number of pairs.
	Permutations int

	// Antithetic pairs every sampled permutation with its reverse. The
	// reverse of a uniform random permutation is also uniform, and for
	// games with monotone position effects (early joiners pay the
	// machine's wake-up costs, late joiners ride contention discounts)
	// the paired marginals are negatively correlated, cutting variance
	// at no extra worth-function cost. Each pair counts as two
	// permutations toward the budget, and the reported StdErr is
	// computed over pair averages — the two halves of a pair are
	// deliberately dependent, so treating them as independent samples
	// would misstate the error (usually understating it).
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
// The worth function is called n+1 times per permutation. Sampling units
// are evaluated by up to MCOptions.Parallelism workers and reduced in
// unit order, so the estimate is a pure function of (game,
// MCOptions.Seed).
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

	walk := func(ord []int, out []float64, scale float64) {
		prefix := vm.EmptyCoalition
		prev := worth(prefix)
		for _, p := range ord {
			prefix = prefix.With(vm.ID(p))
			cur := worth(prefix)
			out[p] += scale * (cur - prev)
			prev = cur
		}
	}

	// unit samples unit k with rng, a worker's own generator over a
	// unitSource. Seeding resets the source completely, so the unit
	// draws exactly the stream a fresh rand.NewSource(unitSeed(Seed, k))
	// would, without a ~5 KB source allocation or a 1,841-step register
	// fill per unit.
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

	// Evaluate every unit into its own row (row k) using up to
	// Parallelism workers, then merge the rows in unit order.
	rows := make([]float64, totalUnits*n)
	workers := resolveParallelism(opts.Parallelism)
	if workers > totalUnits {
		workers = totalUnits
	}
	if workers <= 1 {
		rng := rand.New(newUnitSource(0))
		order := make([]int, n)
		reversed := make([]int, n)
		for k := 0; k < totalUnits; k++ {
			unit(k, rng, rows[k*n:(k+1)*n], order, reversed)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				rng := rand.New(newUnitSource(0))
				order := make([]int, n)
				reversed := make([]int, n)
				// Static strided assignment: unit k belongs to worker
				// k mod workers. Which goroutine computes a unit does
				// not matter — unit results depend only on (seed, k).
				for k := w; k < totalUnits; k += workers {
					unit(k, rng, rows[k*n:(k+1)*n], order, reversed)
				}
			}(w)
		}
		wg.Wait()
	}

	sum := make([]float64, n)
	sumSq := make([]float64, n)
	for k := 0; k < totalUnits; k++ {
		row := rows[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			d := row[i]
			sum[i] += d
			sumSq[i] += d * d
		}
	}

	res := &MCResult{
		Phi:          make([]float64, n),
		StdErr:       make([]float64, n),
		Permutations: totalUnits * walksPerUnit,
	}
	for i := 0; i < n; i++ {
		res.Phi[i] = sum[i] / float64(totalUnits)
		res.StdErr[i] = stdErr(sum[i], sumSq[i], totalUnits)
	}
	met.observeMC(start)
	met.noteMC(res)
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
