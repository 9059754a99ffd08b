package shapley

import (
	"math/rand"
	"reflect"
	"testing"

	"vmpower/internal/vm"
)

// weightsDirect is the pre-memoization computation, kept verbatim as the
// oracle for the cache.
func weightsDirect(n int) []float64 {
	w := make([]float64, n)
	for s := 0; s < n; s++ {
		c := 1.0
		for i := 0; i < s; i++ {
			c = c * float64(n-1-i) / float64(i+1)
		}
		w[s] = 1 / (float64(n) * c)
	}
	return w
}

// TestWeightsMemoMatchesDirect pins the memoized Weights against the
// direct computation for n=1..16, twice per n so both the cold and the
// cached path are exercised.
func TestWeightsMemoMatchesDirect(t *testing.T) {
	for n := 1; n <= 16; n++ {
		want := weightsDirect(n)
		for pass := 0; pass < 2; pass++ {
			got, err := Weights(n)
			if err != nil {
				t.Fatalf("Weights(%d): %v", n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Weights(%d) pass %d = %v, want %v", n, pass, got, want)
			}
		}
	}
}

// TestWeightsReturnsPrivateCopy guards the memo against caller mutation.
func TestWeightsReturnsPrivateCopy(t *testing.T) {
	a, err := Weights(5)
	if err != nil {
		t.Fatal(err)
	}
	a[0] = -1
	b, err := Weights(5)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] == -1 {
		t.Fatal("mutating a Weights result leaked into the memo")
	}
}

func randomWorth(n int, seed int64) WorthFunc {
	rng := rand.New(rand.NewSource(seed))
	table := make([]float64, 1<<uint(n))
	for i := range table {
		table[i] = rng.Float64() * 100
	}
	return func(s vm.Coalition) float64 { return table[s] }
}

// TestIntoVariantsMatchAllocating pins every *Into entry point against
// its allocating counterpart, bit for bit, across parallelism settings,
// on poisoned buffers.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		worth := randomWorth(n, int64(n))
		want, err := Tabulate(n, worth)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 1<<uint(n))
		if err := TabulateInto(got, n, worth); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: TabulateInto != Tabulate", n)
		}
		for _, par := range []int{1, 3} {
			// Poison the buffers to prove the Into calls fully overwrite.
			for i := range got {
				got[i] = -999
			}
			if err := TabulateParallelInto(got, n, worth, par); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d par=%d: TabulateParallelInto != Tabulate", n, par)
			}
		}
		wantPhi, err := ExactFromTable(n, want)
		if err != nil {
			t.Fatal(err)
		}
		phi := make([]float64, n)
		for i := range phi {
			phi[i] = -999
		}
		if err := ExactFromTableInto(phi, n, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(phi, wantPhi) {
			t.Fatalf("n=%d: ExactFromTableInto = %v, want %v", n, phi, wantPhi)
		}
	}
}

// TestIntoZeroAlloc pins the buffer-reuse contract: a serial tabulate +
// accumulate cycle through the Into APIs allocates nothing.
func TestIntoZeroAlloc(t *testing.T) {
	const n = 6
	worth := randomWorth(n, 99)
	table := make([]float64, 1<<n)
	phi := make([]float64, n)
	if _, err := weightsShared(n); err != nil { // warm the memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := TabulateParallelInto(table, n, worth, 1); err != nil {
			t.Fatal(err)
		}
		if err := ExactFromTableInto(phi, n, table); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Into cycle allocates %v per run, want 0", allocs)
	}
}

// TestIntoValidation covers the buffer-shape error paths.
func TestIntoValidation(t *testing.T) {
	worth := func(vm.Coalition) float64 { return 0 }
	if err := TabulateInto(make([]float64, 3), 2, worth); err == nil {
		t.Fatal("short table accepted")
	}
	if err := TabulateParallelInto(make([]float64, 4), 2, nil, 1); err == nil {
		t.Fatal("nil worth accepted")
	}
	if err := TabulateParallelInto(make([]float64, 3), 2, worth, 1); err == nil {
		t.Fatal("short table accepted by the parallel tabulation")
	}
	if err := ExactFromTableInto(make([]float64, 1), 2, make([]float64, 4)); err == nil {
		t.Fatal("short phi accepted")
	}
}
