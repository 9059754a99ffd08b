package shapley

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

func TestMonteCarloPaperGame(t *testing.T) {
	res, err := MonteCarlo(2, paperGame, MCOptions{Permutations: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Both orderings yield (13, 7) or (7, 13), so the estimate converges
	// to (10, 10) and the efficiency sum is exact.
	if math.Abs(res.Phi[0]+res.Phi[1]-20) > 1e-9 {
		t.Fatalf("efficiency violated: %v", res.Phi)
	}
	if math.Abs(res.Phi[0]-10) > 1 {
		t.Fatalf("Phi[0] = %g, want ~10", res.Phi[0])
	}
	if res.Permutations != 500 {
		t.Fatalf("Permutations = %d", res.Permutations)
	}
}

func TestMonteCarloEfficiencyExact(t *testing.T) {
	// Every sampled permutation telescopes to v(N) − v(∅), so the MC
	// estimate is exactly efficient for any game and sample count.
	rng := rand.New(rand.NewSource(42))
	n := 7
	table := randomGameTable(rng, n)
	worth := func(s vm.Coalition) float64 { return table[s] }
	res, err := MonteCarlo(n, worth, MCOptions{Permutations: 17, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.Phi {
		sum += p
	}
	grand := table[len(table)-1]
	if math.Abs(sum-grand) > 1e-9*(1+grand) {
		t.Fatalf("MC efficiency: sum %g vs grand %g", sum, grand)
	}
}

func TestMonteCarloConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 8
	table := randomGameTable(rng, n)
	worth := func(s vm.Coalition) float64 { return table[s] }
	exact, err := ExactFromTable(n, table)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MonteCarlo(n, worth, MCOptions{Permutations: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if math.Abs(res.Phi[i]-exact[i]) > 2.5 { // values are O(50)
			t.Fatalf("Phi[%d] = %g, exact %g", i, res.Phi[i], exact[i])
		}
		// The estimate should be within ~5 standard errors of exact.
		if d := math.Abs(res.Phi[i] - exact[i]); d > 5*res.StdErr[i]+1e-9 {
			t.Fatalf("Phi[%d] off by %g with stderr %g", i, d, res.StdErr[i])
		}
	}
}

func TestMonteCarloDeterministicSeed(t *testing.T) {
	res1, err := MonteCarlo(5, paperGame5, MCOptions{Permutations: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := MonteCarlo(5, paperGame5, MCOptions{Permutations: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Phi {
		if res1.Phi[i] != res2.Phi[i] {
			t.Fatal("same seed must give identical estimates")
		}
	}
	res3, err := MonteCarlo(5, paperGame5, MCOptions{Permutations: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range res1.Phi {
		if res1.Phi[i] != res3.Phi[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different estimates")
	}
}

// paperGame5 is a 5-player game with mild interactions for MC tests.
func paperGame5(s vm.Coalition) float64 {
	size := float64(s.Size())
	return 10*size - 0.8*size*size
}

func TestMonteCarloEarlyStop(t *testing.T) {
	// A deterministic additive game has zero-variance marginals, so the
	// sampler must stop at the first convergence check.
	worth := func(s vm.Coalition) float64 { return float64(s.Size()) }
	res, err := MonteCarlo(4, worth, MCOptions{
		Permutations: 10000,
		TargetStdErr: 0.01,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Permutations >= 10000 {
		t.Fatalf("no early stop: %d permutations", res.Permutations)
	}
	for i, p := range res.Phi {
		if math.Abs(p-1) > 1e-12 {
			t.Fatalf("Phi[%d] = %g, want 1", i, p)
		}
	}
}

func TestMonteCarloDefaults(t *testing.T) {
	res, err := MonteCarlo(3, paperGame5, MCOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Permutations != DefaultPermutations {
		t.Fatalf("default permutations = %d", res.Permutations)
	}
}

func TestMonteCarloAntithetic(t *testing.T) {
	// Antithetic pairs count two permutations and preserve efficiency;
	// an odd budget rounds up to a whole pair.
	rng := rand.New(rand.NewSource(13))
	n := 8
	table := randomGameTable(rng, n)
	worth := func(s vm.Coalition) float64 { return table[s] }
	res, err := MonteCarlo(n, worth, MCOptions{Permutations: 101, Antithetic: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Permutations != 102 {
		t.Fatalf("Permutations = %d, want 102 (51 pairs)", res.Permutations)
	}
	var sum float64
	for _, p := range res.Phi {
		sum += p
	}
	grand := table[len(table)-1]
	if math.Abs(sum-grand) > 1e-9*(1+grand) {
		t.Fatalf("antithetic efficiency: %g vs %g", sum, grand)
	}
}

func TestMonteCarloAntitheticReducesVariance(t *testing.T) {
	// On a game with strong position effects, antithetic sampling should
	// usually beat plain sampling at an equal permutation budget. Compare
	// mean absolute error across seeds to avoid flakiness.
	const n = 10
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 13*size - 0.9*size*size // concave: late joiners cheaper
	}
	exact, err := Exact(n, worth)
	if err != nil {
		t.Fatal(err)
	}
	mae := func(antithetic bool) float64 {
		var total float64
		const trials = 12
		for seed := int64(0); seed < trials; seed++ {
			res, err := MonteCarlo(n, worth, MCOptions{Permutations: 60, Antithetic: antithetic, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for i := range exact {
				total += math.Abs(res.Phi[i] - exact[i])
			}
		}
		return total / trials
	}
	plain := mae(false)
	anti := mae(true)
	if anti > plain {
		t.Fatalf("antithetic MAE %g worse than plain %g", anti, plain)
	}
}

func TestMonteCarloAntitheticStdErrOverPairs(t *testing.T) {
	// For a worth that depends only on coalition size, the marginal of
	// the player at position k is f(k+1) − f(k). With f quadratic the
	// pair average of positions k and n−1−k is the same constant for
	// every player and every pair, so the pair-level variance — and the
	// reported StdErr — must be exactly 0. The pre-fix code computed the
	// variance over the individual half-samples (which DO vary with
	// position) and reported a spuriously positive StdErr.
	const n = 6
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 13*size - 0.7*size*size
	}
	res, err := MonteCarlo(n, worth, MCOptions{Permutations: 64, Antithetic: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, se := range res.StdErr {
		if se > 1e-9 {
			t.Fatalf("StdErr[%d] = %g, want 0 (pair averages are constant)", i, se)
		}
	}
	// And the zero pair-variance must fire TargetStdErr at the first
	// checkpoint rather than run out the budget.
	res, err = MonteCarlo(n, worth, MCOptions{
		Permutations: 100000, Antithetic: true, TargetStdErr: 1e-6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Permutations != 128 { // 64 pairs, the first checkpoint
		t.Fatalf("Permutations = %d, want early stop at 128", res.Permutations)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarlo(0, paperGame5, MCOptions{}); !errors.Is(err, ErrPlayers) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := MonteCarlo(3, nil, MCOptions{}); !errors.Is(err, ErrNilWorth) {
		t.Fatalf("nil worth: %v", err)
	}
}

// monteCarloFreshSources is the sampling from before MonteCarlo's workers
// reseeded one generator each, kept as the oracle: every unit draws its
// permutation from a fresh rand.NewSource(unitSeed(Seed, k)) and the
// unit rows are reduced in unit order. Fixed budget only (no early stop).
func monteCarloFreshSources(n int, worth WorthFunc, opts MCOptions) (phi, se []float64) {
	units := opts.Permutations
	if opts.Antithetic {
		units = (units + 1) / 2
	}
	sum, sumSq := make([]float64, n), make([]float64, n)
	order, reversed, row := make([]int, n), make([]int, n), make([]float64, n)
	walk := func(ord []int, scale float64) {
		prefix := vm.EmptyCoalition
		prev := worth(prefix)
		for _, p := range ord {
			prefix = prefix.With(vm.ID(p))
			cur := worth(prefix)
			row[p] += scale * (cur - prev)
			prev = cur
		}
	}
	for k := 0; k < units; k++ {
		clear(row)
		rng := rand.New(rand.NewSource(unitSeed(opts.Seed, k)))
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		if opts.Antithetic {
			for i, p := range order {
				reversed[n-1-i] = p
			}
			walk(order, 0.5)
			walk(reversed, 0.5)
		} else {
			walk(order, 1)
		}
		for i, d := range row {
			sum[i] += d
			sumSq[i] += d * d
		}
	}
	phi, se = make([]float64, n), make([]float64, n)
	for i := range phi {
		phi[i] = sum[i] / float64(units)
		se[i] = stdErr(sum[i], sumSq[i], units)
	}
	return phi, se
}

// TestMonteCarloReseededMatchesFreshSources pins the per-worker reseeded
// generators to the fresh-source oracle: φ and StdErr bit for bit at
// parallelism 1 and 2, plain and antithetic.
func TestMonteCarloReseededMatchesFreshSources(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, n := range []int{1, 5, 12} {
		table := randomGameTable(rng, n)
		worth := func(s vm.Coalition) float64 { return table[s] }
		for _, anti := range []bool{false, true} {
			opts := MCOptions{Permutations: 101, Seed: 9, Antithetic: anti}
			wantPhi, wantSE := monteCarloFreshSources(n, worth, opts)
			for _, p := range []int{1, 2} {
				opts.Parallelism = p
				res, err := MonteCarlo(n, worth, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if math.Float64bits(res.Phi[i]) != math.Float64bits(wantPhi[i]) ||
						math.Float64bits(res.StdErr[i]) != math.Float64bits(wantSE[i]) {
						t.Fatalf("n=%d antithetic=%v p=%d player %d: (%v ± %v), oracle (%v ± %v)",
							n, anti, p, i, res.Phi[i], res.StdErr[i], wantPhi[i], wantSE[i])
					}
				}
			}
		}
	}
}
