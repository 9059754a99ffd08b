package shapley

import (
	"fmt"

	"vmpower/internal/vm"
)

// MobiusTransform computes the Harsanyi dividends of a tabulated game:
//
//	m(S) = Σ_{T ⊆ S} (−1)^(|S|−|T|) · v(T)
//
// m(S) is the surplus coalition S generates beyond what all its proper
// subsets already explain — the game's "interaction spectrum". The
// transform is computed in place with the standard subset-sum (zeta/
// Möbius) dynamic program in O(2^n · n).
//
// Identities the tests rely on: v(S) = Σ_{T⊆S} m(T) (inverse), the
// Shapley value Φ_i = Σ_{S∋i} m(S)/|S|, and the pairwise interaction
// index I(i,j) = Σ_{S⊇{i,j}} m(S)/(|S|−1).
func MobiusTransform(n int, table []float64) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(table) != 1<<uint(n) {
		return nil, fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	m := make([]float64, len(table))
	copy(m, table)
	for i := 0; i < n; i++ {
		bit := 1 << uint(i)
		for s := range m {
			if s&bit != 0 {
				m[s] -= m[s&^bit]
			}
		}
	}
	return m, nil
}

// ShapleyFromDividends computes the Shapley value through the Harsanyi
// identity Φ_i = Σ_{S ∋ i} m(S)/|S| — each coalition's dividend is split
// equally among its members. Used as an independent cross-check of
// ExactFromTable.
func ShapleyFromDividends(n int, dividends []float64) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(dividends) != 1<<uint(n) {
		return nil, fmt.Errorf("shapley: dividends have %d entries, want 2^%d", len(dividends), n)
	}
	phi := make([]float64, n)
	for s := vm.Coalition(1); int(s) < len(dividends); s++ {
		share := dividends[s] / float64(s.Size())
		for _, id := range s.Members() {
			phi[int(id)] += share
		}
	}
	return phi, nil
}
