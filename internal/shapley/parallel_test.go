package shapley

import (
	"math"
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

// parallelisms exercised by the determinism tests: serial, fewer and
// more workers than shards-per-worker boundaries, and the GOMAXPROCS
// default.
var parallelisms = []int{1, 2, 3, 7, 16, 0}

// exactFromTableParallel runs the sharded accumulation into fresh
// buffers.
func exactFromTableParallel(n int, table []float64, parallelism int) ([]float64, error) {
	phi := make([]float64, n)
	if err := ExactFromTableParallelInto(phi, make([]float64, ExactScratch(n)), n, table, parallelism); err != nil {
		return nil, err
	}
	return phi, nil
}

// exactParallel is the sharded tabulate-then-accumulate pair that core's
// mask tier runs, into fresh buffers.
func exactParallel(n int, worth WorthFunc, parallelism int) ([]float64, error) {
	table := make([]float64, 1<<uint(n))
	if err := TabulateParallelInto(table, n, worth, parallelism); err != nil {
		return nil, err
	}
	return exactFromTableParallel(n, table, parallelism)
}

func TestTabulateParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 3, 7, 10} {
		table := randomGameTable(rng, n)
		worth := func(s vm.Coalition) float64 { return table[s] }
		want, err := Tabulate(n, worth)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parallelisms {
			got := make([]float64, len(want))
			if err := TabulateParallelInto(got, n, worth, p); err != nil {
				t.Fatal(err)
			}
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("n=%d p=%d: table[%d] = %g, want %g", n, p, s, got[s], want[s])
				}
			}
		}
	}
}

func TestExactParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 9, 12} {
		table := randomGameTable(rng, n)
		serial, err := ExactFromTable(n, table)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parallelisms {
			par, err := exactFromTableParallel(n, table, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				scale := math.Max(1, math.Abs(serial[i]))
				if math.Abs(par[i]-serial[i]) > 1e-12*scale {
					t.Fatalf("n=%d p=%d: phi[%d] = %.17g, serial %.17g", n, p, i, par[i], serial[i])
				}
			}
		}
	}
}

func TestExactParallelDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{4, 9, 13} {
		table := randomGameTable(rng, n)
		worth := func(s vm.Coalition) float64 { return table[s] }
		ref, err := exactParallel(n, worth, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parallelisms[1:] {
			got, err := exactParallel(n, worth, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d: parallelism %d diverges bit-for-bit at phi[%d]: %.17g vs %.17g",
						n, p, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 9
	table := randomGameTable(rng, n)
	worth := func(s vm.Coalition) float64 { return table[s] }
	for _, anti := range []bool{false, true} {
		ref, err := MonteCarlo(n, worth, MCOptions{
			Permutations: 150, Antithetic: anti, Seed: 5, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parallelisms[1:] {
			got, err := MonteCarlo(n, worth, MCOptions{
				Permutations: 150, Antithetic: anti, Seed: 5, Parallelism: p,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got.Permutations != ref.Permutations {
				t.Fatalf("anti=%v p=%d: %d permutations, want %d", anti, p, got.Permutations, ref.Permutations)
			}
			for i := range ref.Phi {
				if got.Phi[i] != ref.Phi[i] || got.StdErr[i] != ref.StdErr[i] {
					t.Fatalf("anti=%v p=%d: estimate diverges bit-for-bit at player %d", anti, p, i)
				}
			}
		}
	}
}

func TestMonteCarloEarlyStopDeterministicAcrossParallelism(t *testing.T) {
	// Early stopping decides at fixed unit-count checkpoints, so the
	// stopping point itself must not depend on the worker count.
	rng := rand.New(rand.NewSource(29))
	n := 8
	table := randomGameTable(rng, n)
	worth := func(s vm.Coalition) float64 { return table[s] }
	ref, err := MonteCarlo(n, worth, MCOptions{
		Permutations: 5000, TargetStdErr: 1.5, Seed: 2, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Permutations >= 5000 {
		t.Fatalf("test game never early-stops (%d permutations); loosen TargetStdErr", ref.Permutations)
	}
	for _, p := range parallelisms[1:] {
		got, err := MonteCarlo(n, worth, MCOptions{
			Permutations: 5000, TargetStdErr: 1.5, Seed: 2, Parallelism: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Permutations != ref.Permutations {
			t.Fatalf("p=%d stopped at %d permutations, serial at %d", p, got.Permutations, ref.Permutations)
		}
		for i := range ref.Phi {
			if got.Phi[i] != ref.Phi[i] {
				t.Fatalf("p=%d: Phi[%d] diverges", p, i)
			}
		}
	}
}

func TestMonteCarloGOMAXPROCSInvariance(t *testing.T) {
	// Parallelism 0 (all cores) must agree bit-for-bit with an explicit
	// worker count — the estimate may depend only on the seed.
	n := 7
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 9*size - 0.5*size*size
	}
	a, err := MonteCarlo(n, worth, MCOptions{Permutations: 96, Seed: 4, Parallelism: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(n, worth, MCOptions{Permutations: 96, Seed: 4, Parallelism: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Phi {
		if a.Phi[i] != b.Phi[i] {
			t.Fatalf("Phi[%d] differs between parallelism 0 and 5", i)
		}
	}
}

func TestParallelErrors(t *testing.T) {
	if err := TabulateParallelInto(nil, 0, nil, 2); err == nil {
		t.Fatal("want player-range error")
	}
	if err := TabulateParallelInto(make([]float64, 8), 3, nil, 2); err != ErrNilWorth {
		t.Fatalf("nil worth: %v", err)
	}
	if _, err := exactFromTableParallel(2, []float64{1, 2}, 2); err == nil {
		t.Fatal("want table-length error")
	}
	if err := ExactFromTableParallelInto(make([]float64, 40), nil, 40, nil, 2); err == nil {
		t.Fatal("want player-range error")
	}
}

// accumulateShardAllPlayers is the accumulation loop from before it
// walked complement bits only, kept verbatim as the oracle: every mask
// visits all n players and skips its members.
func accumulateShardAllPlayers(partials, w, table []float64, n, shard, per int) {
	phi := partials[shard*n : (shard+1)*n]
	lo := vm.Coalition(shard * per)
	hi := lo + vm.Coalition(per)
	for s := lo; s < hi; s++ {
		vs := table[s]
		size := s.Size()
		for i := 0; i < n; i++ {
			id := vm.ID(i)
			if s.Contains(id) {
				continue
			}
			phi[i] += w[size] * (table[s.With(id)] - vs)
		}
	}
}

// TestAccumulateShardMatchesAllPlayersLoop pins the complement-bit
// accumulation to the all-players oracle bit for bit: φ from
// ExactFromTableParallelInto at parallelism 1 and 2 against the oracle's
// shard partials merged in shard order, for n = 1..16 on random
// mixed-sign games.
func TestAccumulateShardMatchesAllPlayersLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 1; n <= 16; n++ {
		table := make([]float64, 1<<uint(n))
		for s := range table {
			table[s] = rng.NormFloat64() * 100
		}
		w, err := weightsShared(n)
		if err != nil {
			t.Fatal(err)
		}
		shards := exactShards(n)
		per := len(table) / shards
		partials := make([]float64, shards*n)
		for shard := 0; shard < shards; shard++ {
			accumulateShardAllPlayers(partials, w, table, n, shard, per)
		}
		want := make([]float64, n)
		for shard := 0; shard < shards; shard++ {
			for i := range want {
				want[i] += partials[shard*n+i]
			}
		}
		for _, p := range []int{1, 2} {
			phi := make([]float64, n)
			if err := ExactFromTableParallelInto(phi, make([]float64, ExactScratch(n)), n, table, p); err != nil {
				t.Fatal(err)
			}
			for i := range phi {
				if math.Float64bits(phi[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d p=%d: phi[%d] = %.17g, oracle %.17g", n, p, i, phi[i], want[i])
				}
			}
		}
	}
}
