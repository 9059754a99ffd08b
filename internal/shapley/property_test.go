package shapley

import (
	"math"
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

// Property-based axiom tests: seeded random games up to n = 10 players,
// including mixed-sign and near-zero-sum worths, checked against the four
// Shapley axioms and across all three exact solvers (sequential, sharded
// parallel, and Möbius-dividend reconstruction).

const propTol = 1e-9

// randomTable draws a worth table for an n-player game with v(∅) = 0 and
// values in [-scale, scale] — mixed signs on purpose, since interference
// makes real coalition worths non-monotone (Sec. V-C).
func randomTable(rng *rand.Rand, n int, scale float64) []float64 {
	table := make([]float64, 1<<uint(n))
	for s := 1; s < len(table); s++ {
		table[s] = (2*rng.Float64() - 1) * scale
	}
	return table
}

func tableWorth(table []float64) WorthFunc {
	return func(c vm.Coalition) float64 { return table[c] }
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestAxiomsOnRandomGames cross-checks Exact and the Möbius route on seeded random games and asserts Efficiency, Symmetry
// and Dummy via CheckAxioms.
func TestAxiomsOnRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(10)
		scale := 100.0
		if trial%3 == 0 {
			// Near-zero-sum worths: tiny values stress the tolerance.
			scale = 1e-6
		}
		table := randomTable(rng, n, scale)
		worth := tableWorth(table)

		phi, err := Exact(n, worth)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		div, err := MobiusTransform(n, table)
		if err != nil {
			t.Fatalf("trial %d (n=%d): mobius: %v", trial, n, err)
		}
		mob, err := ShapleyFromDividends(n, div)
		if err != nil {
			t.Fatalf("trial %d (n=%d): dividends: %v", trial, n, err)
		}
		if d := maxAbsDiff(phi, mob); d > propTol {
			t.Fatalf("trial %d (n=%d): mobius route diverges by %g", trial, n, d)
		}

		report, err := CheckAxioms(n, worth, phi, propTol)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if !report.Ok() {
			t.Fatalf("trial %d (n=%d): axioms violated: %v", trial, n, report)
		}
	}
}

// TestSymmetryOnConstructedPairs builds games where players 0 and 1 are
// symmetric by construction — v(S ∪ {0}) = v(S ∪ {1}) for every S
// excluding both — and asserts they receive equal shares.
func TestSymmetryOnConstructedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(9)
		table := randomTable(rng, n, 50)
		for s := vm.Coalition(0); s < vm.Coalition(1<<uint(n)); s++ {
			if s&0b11 == 0 {
				table[s|0b10] = table[s|0b01]
			}
		}
		phi, err := Exact(n, tableWorth(table))
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if d := math.Abs(phi[0] - phi[1]); d > propTol {
			t.Fatalf("trial %d (n=%d): symmetric players split %g apart", trial, n, d)
		}
	}
}

// TestDummyOnConstructedGames builds games where player 0 contributes a
// constant marginal worth to every coalition; its Shapley share must be
// exactly that constant (the Dummy axiom, with v({0}) = c).
func TestDummyOnConstructedGames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(9)
		c := (2*rng.Float64() - 1) * 10
		table := randomTable(rng, n, 50)
		for s := vm.Coalition(0); s < vm.Coalition(1<<uint(n)); s++ {
			if s&1 == 0 {
				table[s|1] = table[s] + c
			}
		}
		phi, err := Exact(n, tableWorth(table))
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if d := math.Abs(phi[0] - c); d > propTol {
			t.Fatalf("trial %d (n=%d): dummy share %g, want %g", trial, n, phi[0], c)
		}
	}
}

// TestAdditivityOnRandomPairs checks Φ(v1 + v2) = Φ(v1) + Φ(v2) on seeded
// random pairs, including a near-zero-sum partner.
func TestAdditivityOnRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		t1 := randomTable(rng, n, 100)
		t2 := randomTable(rng, n, 1e-6)
		dev, err := CheckAdditivity(n, tableWorth(t1), tableWorth(t2), propTol)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v (dev %g)", trial, n, err, dev)
		}
	}
}
