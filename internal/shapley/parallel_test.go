package shapley

import (
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

// parallelisms exercised by the determinism tests: serial, fewer and
// more workers than shards-per-worker boundaries, the zero value
// (serial) and all cores (GOMAXPROCS).
var parallelisms = []int{1, 2, 3, 7, 16, 0, -1}

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

func TestMonteCarloGOMAXPROCSInvariance(t *testing.T) {
	// Parallelism -1 (all cores) must agree bit-for-bit with an explicit
	// worker count — the estimate may depend only on the seed.
	n := 7
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 9*size - 0.5*size*size
	}
	a, err := MonteCarlo(n, worth, MCOptions{Permutations: 96, Seed: 4, Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(n, worth, MCOptions{Permutations: 96, Seed: 4, Parallelism: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Phi {
		if a.Phi[i] != b.Phi[i] {
			t.Fatalf("Phi[%d] differs between parallelism -1 and 5", i)
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
	if err := TabulateParallelInto(make([]float64, 3), 2, testWorth, 2); err == nil {
		t.Fatal("want table-length error")
	}
}
