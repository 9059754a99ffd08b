package shapley

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmpower/internal/vm"
)

func TestMobiusPaperGame(t *testing.T) {
	table, err := Tabulate(2, paperGame)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MobiusTransform(2, table)
	if err != nil {
		t.Fatal(err)
	}
	// Dividends: singletons carry 13 each; the pair's dividend is the
	// interaction 20 − 13 − 13 = −6 (the HTT contention).
	want := []float64{0, 13, 13, -6}
	for i := range want {
		if math.Abs(m[i]-want[i]) > 1e-12 {
			t.Fatalf("m[%d] = %g, want %g", i, m[i], want[i])
		}
	}
}

func TestMobiusErrors(t *testing.T) {
	if _, err := MobiusTransform(0, nil); err == nil {
		t.Fatal("want player-count error")
	}
	if _, err := MobiusTransform(2, []float64{1}); err == nil {
		t.Fatal("want table-length error")
	}
	if _, err := InverseMobius(2, []float64{1}); err == nil {
		t.Fatal("want dividends-length error")
	}
	if _, err := ShapleyFromDividends(2, []float64{1}); err == nil {
		t.Fatal("want dividends-length error")
	}
}

// Property: InverseMobius ∘ MobiusTransform is the identity.
func TestMobiusRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		table := randomGameTable(rng, n)
		m, err := MobiusTransform(n, table)
		if err != nil {
			return false
		}
		back, err := InverseMobius(n, m)
		if err != nil {
			return false
		}
		for i := range table {
			if math.Abs(back[i]-table[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Harsanyi identity — Shapley via equal dividend splitting
// matches the direct Eq. 4 computation on random games.
func TestShapleyDividendIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		table := randomGameTable(rng, n)
		direct, err := ExactFromTable(n, table)
		if err != nil {
			return false
		}
		m, err := MobiusTransform(n, table)
		if err != nil {
			return false
		}
		viaDividends, err := ShapleyFromDividends(n, m)
		if err != nil {
			return false
		}
		for i := range direct {
			if math.Abs(direct[i]-viaDividends[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the interaction index matches its dividend form
// I(i,j) = Σ_{S ⊇ {i,j}} m(S)/(|S|−1).
func TestInteractionDividendIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		table := randomGameTable(rng, n)
		idx, err := InteractionIndex(n, table)
		if err != nil {
			return false
		}
		m, err := MobiusTransform(n, table)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				var want float64
				for s := vm.Coalition(0); int(s) < len(m); s++ {
					if s.Contains(vm.ID(i)) && s.Contains(vm.ID(j)) {
						want += m[s] / float64(s.Size()-1)
					}
				}
				if math.Abs(idx[i][j]-want) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// InverseMobius reconstructs the worth table from Harsanyi dividends
// (the zeta transform), inverting MobiusTransform.
func InverseMobius(n int, dividends []float64) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(dividends) != 1<<uint(n) {
		return nil, fmt.Errorf("shapley: dividends have %d entries, want 2^%d", len(dividends), n)
	}
	v := make([]float64, len(dividends))
	copy(v, dividends)
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for s := range v {
			if s&bit != 0 {
				v[s] += v[s&^bit]
			}
		}
	}
	return v, nil
}
