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
// its allocating counterpart, bit for bit, across parallelism settings;
// the sharded accumulation, which has none, is pinned on poisoned
// buffers against a run on fresh ones.
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

			wantPhi, err := exactFromTableParallel(n, want, par)
			if err != nil {
				t.Fatal(err)
			}
			phi := make([]float64, n)
			scratch := make([]float64, ExactScratch(n))
			for i := range phi {
				phi[i] = -999
			}
			for i := range scratch {
				scratch[i] = -999
			}
			if err := ExactFromTableParallelInto(phi, scratch, n, want, par); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(phi, wantPhi) {
				t.Fatalf("n=%d par=%d: ExactFromTableParallelInto = %v, want %v", n, par, phi, wantPhi)
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

// TestRetabulateDirtySubset is the incremental-tabulation recurrence: a
// worth whose value depends on per-player states, of which only a dirty
// subset changes between ticks. Retabulating just the dirty-intersecting
// masks must reproduce a full tabulation of the new states bit for bit.
func TestRetabulateDirtySubset(t *testing.T) {
	const n = 7
	states := make([]float64, n)
	for i := range states {
		states[i] = float64(i + 1)
	}
	worth := func(s vm.Coalition) float64 {
		var sum float64
		for _, id := range s.Members() {
			sum += states[id] * states[id]
		}
		return sum
	}
	table := make([]float64, 1<<n)
	if err := TabulateInto(table, n, worth); err != nil {
		t.Fatal(err)
	}
	// Tick: players 2 and 5 change state.
	dirty := vm.CoalitionOf(2, 5)
	states[2] = 17.5
	states[5] = 0.25
	for _, par := range []int{1, 4} {
		got := append([]float64(nil), table...)
		if err := RetabulateParallelInto(got, n, worth, dirty, par); err != nil {
			t.Fatal(err)
		}
		want, err := Tabulate(n, worth)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("par=%d: incremental retabulation != full tabulation", par)
		}
	}
	// dirty == 0 must leave the table untouched.
	got := append([]float64(nil), table...)
	if err := RetabulateParallelInto(got, n, worth, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, table) {
		t.Fatal("dirty=0 retabulation modified the table")
	}
}

// TestIntoZeroAlloc pins the buffer-reuse contract: a serial tabulate +
// retabulate + accumulate cycle through the Into APIs allocates nothing.
func TestIntoZeroAlloc(t *testing.T) {
	const n = 6
	worth := randomWorth(n, 99)
	table := make([]float64, 1<<n)
	phi := make([]float64, n)
	scratch := make([]float64, ExactScratch(n))
	dirty := vm.CoalitionOf(1, 3)
	if _, err := weightsShared(n); err != nil { // warm the memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := TabulateParallelInto(table, n, worth, 1); err != nil {
			t.Fatal(err)
		}
		if err := RetabulateParallelInto(table, n, worth, dirty, 1); err != nil {
			t.Fatal(err)
		}
		if err := ExactFromTableParallelInto(phi, scratch, n, table, 1); err != nil {
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
	if err := RetabulateParallelInto(make([]float64, 3), 2, worth, 1, 1); err == nil {
		t.Fatal("short table accepted by retabulate")
	}
	if err := ExactFromTableInto(make([]float64, 1), 2, make([]float64, 4)); err == nil {
		t.Fatal("short phi accepted")
	}
	if err := ExactFromTableParallelInto(make([]float64, 2), make([]float64, 1), 2, make([]float64, 4), 1); err == nil {
		t.Fatal("short scratch accepted")
	}
	if err := ExactFromTableParallelInto(make([]float64, 2), make([]float64, 16), 2, make([]float64, 3), 1); err == nil {
		t.Fatal("short table accepted by accumulate")
	}
}
