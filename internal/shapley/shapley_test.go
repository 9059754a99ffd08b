package shapley

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"vmpower/internal/vm"
)

// paperGame is the Table III / Fig. 6 two-VM game: singletons worth 13,
// the pair worth 20. The Shapley value is (10, 10).
func paperGame(s vm.Coalition) float64 {
	switch s.Size() {
	case 0:
		return 0
	case 1:
		return 13
	default:
		return 20
	}
}

// gloveGame is the classic 3-player glove game: player 0 holds a left
// glove, players 1 and 2 hold right gloves; a pair is worth 1.
// Shapley value: (2/3, 1/6, 1/6).
func gloveGame(s vm.Coalition) float64 {
	if s.Contains(0) && (s.Contains(1) || s.Contains(2)) {
		return 1
	}
	return 0
}

func TestWeights(t *testing.T) {
	w, err := Weights(3)
	if err != nil {
		t.Fatal(err)
	}
	// s!(n-s-1)!/n! for n=3: s=0 → 2/6, s=1 → 1/6, s=2 → 2/6.
	want := []float64{2.0 / 6, 1.0 / 6, 2.0 / 6}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Fatalf("Weights(3)[%d] = %g, want %g", i, w[i], want[i])
		}
	}
	// Coalition-weighted identity: Σ_s C(n-1, s)·w[s] = 1.
	for n := 1; n <= 16; n++ {
		w, err := Weights(n)
		if err != nil {
			t.Fatal(err)
		}
		var sum, c float64
		c = 1
		for s := 0; s < n; s++ {
			sum += c * w[s]
			c = c * float64(n-1-s) / float64(s+1)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("n=%d: Σ C(n-1,s)·w[s] = %g, want 1", n, sum)
		}
	}
	if _, err := Weights(0); !errors.Is(err, ErrPlayers) {
		t.Fatalf("Weights(0): %v", err)
	}
	if _, err := Weights(vm.MaxVMs + 1); !errors.Is(err, ErrPlayers) {
		t.Fatalf("oversize: %v", err)
	}
	// Past the bitmask cap Weights still serves vectors, up to the
	// VM-set ceiling (the exact tier's hosts of up to vm.MaxVMs VMs).
	if w, err := Weights(ExactMaxPlayers + 1); err != nil || len(w) != ExactMaxPlayers+1 {
		t.Fatalf("Weights(%d) = (%d entries, %v)", ExactMaxPlayers+1, len(w), err)
	}
}

func TestExactPaperGame(t *testing.T) {
	phi, err := Exact(2, paperGame)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[0]-10) > 1e-12 || math.Abs(phi[1]-10) > 1e-12 {
		t.Fatalf("paper game Shapley = %v, want (10, 10)", phi)
	}
}

func TestExactGloveGame(t *testing.T) {
	phi, err := Exact(3, gloveGame)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.0 / 3, 1.0 / 6, 1.0 / 6}
	for i := range want {
		if math.Abs(phi[i]-want[i]) > 1e-12 {
			t.Fatalf("glove Shapley[%d] = %g, want %g", i, phi[i], want[i])
		}
	}
}

func TestExactAdditiveGame(t *testing.T) {
	// In an additive game v(S) = Σ_{i∈S} a_i the Shapley value is a_i.
	a := []float64{3, 1, 4, 1.5, 9}
	worth := func(s vm.Coalition) float64 {
		var sum float64
		for _, id := range s.Members() {
			sum += a[int(id)]
		}
		return sum
	}
	phi, err := Exact(len(a), worth)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(phi[i]-a[i]) > 1e-12 {
			t.Fatalf("additive Shapley[%d] = %g, want %g", i, phi[i], a[i])
		}
	}
}

func TestExactErrors(t *testing.T) {
	if _, err := Exact(0, paperGame); !errors.Is(err, ErrPlayers) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := Exact(2, nil); !errors.Is(err, ErrNilWorth) {
		t.Fatalf("nil worth: %v", err)
	}
	if _, err := ExactFromTable(2, []float64{0, 1, 2}); err == nil {
		t.Fatal("want table-length error")
	}
}

func TestTabulate(t *testing.T) {
	table, err := Tabulate(2, paperGame)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 13, 13, 20}
	for i := range want {
		if table[i] != want[i] {
			t.Fatalf("table[%d] = %g, want %g", i, table[i], want[i])
		}
	}
}

func TestNonDeterministic(t *testing.T) {
	// Worth = sum of members' CPU states ×10: the non-deterministic
	// Shapley value under states (0.2, 0.8) must be (2, 8).
	states := []vm.State{{vm.CPU: 0.2}, {vm.CPU: 0.8}}
	worth := func(s vm.Coalition, st []vm.State) float64 {
		var sum float64
		for _, id := range s.Members() {
			sum += st[int(id)][vm.CPU] * 10
		}
		return sum
	}
	phi, err := NonDeterministic(2, states, worth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi[0]-2) > 1e-12 || math.Abs(phi[1]-8) > 1e-12 {
		t.Fatalf("NonDeterministic = %v", phi)
	}
	if _, err := NonDeterministic(2, states[:1], worth); err == nil {
		t.Fatal("want state-count error")
	}
	if _, err := NonDeterministic(2, states, nil); !errors.Is(err, ErrNilWorth) {
		t.Fatalf("nil worth: %v", err)
	}
}

func TestMarginalContribution(t *testing.T) {
	mc, err := MarginalContribution(paperGame, vm.EmptyCoalition, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc != 13 {
		t.Fatalf("marginal to empty = %g", mc)
	}
	mc, err = MarginalContribution(paperGame, vm.CoalitionOf(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc != 7 {
		t.Fatalf("marginal to {1} = %g", mc)
	}
	if _, err := MarginalContribution(paperGame, vm.CoalitionOf(0), 0); err == nil {
		t.Fatal("want already-member error")
	}
	if _, err := MarginalContribution(nil, vm.EmptyCoalition, 0); !errors.Is(err, ErrNilWorth) {
		t.Fatalf("nil worth: %v", err)
	}
}

func TestBanzhafPaperGame(t *testing.T) {
	table, err := Tabulate(2, paperGame)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := Banzhaf(2, table)
	if err != nil {
		t.Fatal(err)
	}
	// Each player's marginals are 13 (to ∅) and 7 (to the other): the
	// Banzhaf value averages them to 10 — for n=2 it coincides with
	// Shapley and happens to be efficient here.
	if math.Abs(phi[0]-10) > 1e-12 || math.Abs(phi[1]-10) > 1e-12 {
		t.Fatalf("Banzhaf = %v", phi)
	}
}

func TestBanzhafNotEfficientInGeneral(t *testing.T) {
	// The 3-player glove game: Banzhaf shares sum to 1.25 ≠ v(N) = 1.
	table, err := Tabulate(3, gloveGame)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := Banzhaf(3, table)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range phi {
		sum += p
	}
	if math.Abs(sum-1) < 1e-9 {
		t.Fatalf("glove Banzhaf unexpectedly efficient: %v", phi)
	}
	norm := NormalizeEfficient(phi, table[len(table)-1])
	var nsum float64
	for _, p := range norm {
		nsum += p
	}
	if math.Abs(nsum-1) > 1e-12 {
		t.Fatalf("normalized sum = %g", nsum)
	}
}

func TestBanzhafAdditiveGame(t *testing.T) {
	a := []float64{3, 1, 4}
	worth := func(s vm.Coalition) float64 {
		var sum float64
		for _, id := range s.Members() {
			sum += a[int(id)]
		}
		return sum
	}
	table, err := Tabulate(3, worth)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := Banzhaf(3, table)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(phi[i]-a[i]) > 1e-12 {
			t.Fatalf("additive Banzhaf[%d] = %g, want %g", i, phi[i], a[i])
		}
	}
}

func TestBanzhafErrors(t *testing.T) {
	if _, err := Banzhaf(0, nil); !errors.Is(err, ErrPlayers) {
		t.Fatalf("n=0: %v", err)
	}
	if _, err := Banzhaf(2, []float64{1}); err == nil {
		t.Fatal("want table-length error")
	}
}

func TestNormalizeEfficientZero(t *testing.T) {
	out := NormalizeEfficient([]float64{0, 0}, 10)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("zero allocation must stay zero: %v", out)
	}
}

func TestNormalizeEfficientMixedSignCancellation(t *testing.T) {
	// Interference makes negative shares legitimate; when they cancel
	// the net sum to (near) zero, proportional rescaling would divide by
	// ~0 and blow the shares up to ±∞-scale values. The guard must fall
	// back to a uniform shift that restores efficiency at bounded
	// magnitude.
	for _, phi := range [][]float64{
		{25, -25},             // exact cancellation
		{25, -25 + 1e-12},     // cancellation below the guard threshold
		{10, -30, 20 + 1e-13}, // three-way near-cancellation
	} {
		out := NormalizeEfficient(phi, 12)
		var sum, maxAbs float64
		for i, p := range out {
			sum += p
			if a := math.Abs(p); a > maxAbs {
				maxAbs = a
			}
			// The shift preserves pairwise differences.
			if i > 0 {
				wantDiff := phi[i] - phi[i-1]
				if math.Abs((out[i]-out[i-1])-wantDiff) > 1e-9 {
					t.Fatalf("phi=%v: share differences not preserved: %v", phi, out)
				}
			}
		}
		if math.Abs(sum-12) > 1e-9 {
			t.Fatalf("phi=%v: normalized sum %g, want 12", phi, sum)
		}
		if maxAbs > 100 {
			t.Fatalf("phi=%v: cancellation amplified to %v", phi, out)
		}
	}
	// Far from cancellation the proportional path must be untouched.
	out := NormalizeEfficient([]float64{30, -10}, 10)
	if math.Abs(out[0]-15) > 1e-12 || math.Abs(out[1]+5) > 1e-12 {
		t.Fatalf("proportional path disturbed: %v", out)
	}
}

// Property: Efficiency — Σ Φ_i = v(N) − v(∅) + v(∅) = v(N) for random
// monotone games.
func TestExactEfficiencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		table := randomGameTable(rng, n)
		phi, err := ExactFromTable(n, table)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range phi {
			sum += p
		}
		grand := table[len(table)-1]
		return math.Abs(sum-grand) <= 1e-9*(1+math.Abs(grand))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dummy — a player whose marginal contribution is always zero
// receives exactly zero.
func TestExactDummyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		dummy := vm.ID(rng.Intn(n))
		base := randomGameTable(rng, n-1)
		// Build an n-player table where `dummy` never changes the worth:
		// v(S) = base(S \ dummy re-indexed).
		table := make([]float64, 1<<uint(n))
		for s := vm.Coalition(0); s < vm.Coalition(1)<<uint(n); s++ {
			var compact vm.Coalition
			j := 0
			for i := 0; i < n; i++ {
				if vm.ID(i) == dummy {
					continue
				}
				if s.Contains(vm.ID(i)) {
					compact = compact.With(vm.ID(j))
				}
				j++
			}
			table[s] = base[compact]
		}
		phi, err := ExactFromTable(n, table)
		if err != nil {
			return false
		}
		return math.Abs(phi[int(dummy)]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Symmetry — swapping two symmetric players preserves shares.
func TestExactSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		// Build a symmetric game in players 0 and 1: worth depends only
		// on |S ∩ {0,1}| and S ∩ rest.
		table := make([]float64, 1<<uint(n))
		values := make(map[[2]uint32]float64)
		for s := vm.Coalition(0); s < vm.Coalition(1)<<uint(n); s++ {
			pairCount := uint32(0)
			if s.Contains(0) {
				pairCount++
			}
			if s.Contains(1) {
				pairCount++
			}
			rest := uint32(s) >> 2
			key := [2]uint32{pairCount, rest}
			v, ok := values[key]
			if !ok {
				v = rng.Float64() * 100
				values[key] = v
			}
			table[s] = v
		}
		phi, err := ExactFromTable(n, table)
		if err != nil {
			return false
		}
		return math.Abs(phi[0]-phi[1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomGameTable builds a random worth table with v(∅) = 0.
func randomGameTable(rng *rand.Rand, n int) []float64 {
	table := make([]float64, 1<<uint(n))
	for i := 1; i < len(table); i++ {
		table[i] = rng.Float64() * 100
	}
	return table
}

// StateWorthFunc gives the non-deterministic worth v(S, C) of a coalition
// under the member states in states (indexed by vm.ID; entries for
// non-members are ignored). This is the v(S, C) of Eq. 6.
type StateWorthFunc func(s vm.Coalition, states []vm.State) float64

// NonDeterministic computes the non-deterministic Shapley value (Eq. 7):
// the exact Shapley value of the game whose worth of coalition S is
// v(S, C|S), the state-dependent worth under the members' current states.
// states must have one entry per player (indexed by vm.ID).
func NonDeterministic(n int, states []vm.State, worth StateWorthFunc) ([]float64, error) {
	if worth == nil {
		return nil, ErrNilWorth
	}
	if len(states) != n {
		return nil, fmt.Errorf("shapley: %d states for %d players", len(states), n)
	}
	return Exact(n, func(s vm.Coalition) float64 {
		return worth(s, states)
	})
}

// TestWeightsBigRatOracle checks the multiplicative weight recurrence against a
// big.Rat factorial oracle up to n = 200 (and a few beyond), pinning the
// relative error under 1e-12 for every entry.
func TestWeightsBigRatOracle(t *testing.T) {
	ns := []int{1, 2, 3, 5, 8, 13, 16, 20, 24, 32, 64, 100, 128, 200, 256, vm.MaxVMs}
	for _, n := range ns {
		w, err := Weights(n)
		if err != nil {
			t.Fatalf("Weights(%d): %v", n, err)
		}
		fact := make([]*big.Int, n+1)
		fact[0] = big.NewInt(1)
		for i := 1; i <= n; i++ {
			fact[i] = new(big.Int).Mul(fact[i-1], big.NewInt(int64(i)))
		}
		for s := 0; s < n; s++ {
			num := new(big.Int).Mul(fact[s], fact[n-s-1])
			exact := new(big.Rat).SetFrac(num, fact[n])
			want, _ := exact.Float64()
			rel := math.Abs(w[s]-want) / want
			if rel > 1e-12 {
				t.Fatalf("Weights(%d)[%d] = %.17g, oracle %.17g (rel err %.3g)", n, s, w[s], want, rel)
			}
		}
	}
}
