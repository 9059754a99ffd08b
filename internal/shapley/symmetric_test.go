package shapley

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

// maskCounts returns the count vector of a coalition mask under a
// player→class assignment.
func maskCounts(mask vm.Coalition, class []int, k int) []int {
	t := make([]int, k)
	for i := range class {
		if mask.Contains(vm.ID(i)) {
			t[class[i]]++
		}
	}
	return t
}

func TestSymVectorCount(t *testing.T) {
	tests := []struct {
		counts []int
		want   int
	}{
		{[]int{1}, 2},
		{[]int{3}, 4},
		{[]int{1, 1, 1}, 8},
		{[]int{2, 3}, 12},
		{[]int{10, 10, 10}, 1331},
	}
	for _, tt := range tests {
		got, err := SymVectorCount(tt.counts)
		if err != nil {
			t.Fatalf("SymVectorCount(%v): %v", tt.counts, err)
		}
		if got != tt.want {
			t.Fatalf("SymVectorCount(%v) = %d, want %d", tt.counts, got, tt.want)
		}
	}
	if _, err := SymVectorCount(nil); !errors.Is(err, ErrPlayers) {
		t.Fatalf("empty counts: %v", err)
	}
	if _, err := SymVectorCount([]int{3, 0}); !errors.Is(err, ErrPlayers) {
		t.Fatalf("zero class: %v", err)
	}
	if _, err := SymVectorCount([]int{SymMaxPlayers + 1}); !errors.Is(err, ErrPlayers) {
		t.Fatalf("oversize n: %v", err)
	}
	// V cap: 27 classes of 3 give 4^27 >> SymMaxVectors but n = 81 is fine.
	big := make([]int, 27)
	for i := range big {
		big[i] = 3
	}
	if _, err := SymVectorCount(big); !errors.Is(err, ErrPlayers) {
		t.Fatalf("oversize V: %v", err)
	}
}

// Property: the enumerator emits exactly ∏(c_j+1) vectors, no duplicates,
// every index round-trips through SymVectorAt/SymIndexOf, the empty
// vector is first and the grand vector last.
func TestSymEnumeratorProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(4)
		counts := make([]int, k)
		for j := range counts {
			counts[j] = 1 + rng.Intn(4)
		}
		v, err := SymVectorCount(counts)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		for _, c := range counts {
			want *= c + 1
		}
		if v != want {
			t.Fatalf("counts %v: V = %d, want %d", counts, v, want)
		}

		var sc SymScratch
		if _, err := sc.Prepare(counts); err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool, v)
		order := make([][]int, 0, v)
		if err := SymTabulateInto(make([]float64, v), &sc, func(tv []int) float64 {
			key := ""
			for _, x := range tv {
				key += string(rune('0' + x))
			}
			if seen[key] {
				t.Fatalf("counts %v: duplicate vector %v", counts, tv)
			}
			seen[key] = true
			order = append(order, append([]int(nil), tv...))
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		if len(order) != v {
			t.Fatalf("counts %v: enumerated %d vectors, want %d", counts, len(order), v)
		}
		for j := range counts {
			if order[0][j] != 0 {
				t.Fatalf("counts %v: first vector %v not empty", counts, order[0])
			}
			if order[v-1][j] != counts[j] {
				t.Fatalf("counts %v: last vector %v not grand", counts, order[v-1])
			}
		}
		// Round trip every index both ways.
		buf := make([]int, k)
		for idx := 0; idx < v; idx++ {
			if err := SymVectorAt(counts, idx, buf); err != nil {
				t.Fatal(err)
			}
			for j := range buf {
				if buf[j] != order[idx][j] {
					t.Fatalf("counts %v idx %d: decode %v, enumerated %v", counts, idx, buf, order[idx])
				}
			}
			back, err := SymIndexOf(counts, buf)
			if err != nil {
				t.Fatal(err)
			}
			if back != idx {
				t.Fatalf("counts %v: idx %d -> %v -> %d", counts, idx, buf, back)
			}
		}
	}
}

func TestSymIndexErrors(t *testing.T) {
	counts := []int{2, 3}
	if err := SymVectorAt(counts, -1, make([]int, 2)); err == nil {
		t.Fatal("negative index must error")
	}
	if err := SymVectorAt(counts, 12, make([]int, 2)); err == nil {
		t.Fatal("index >= V must error")
	}
	if err := SymVectorAt(counts, 0, make([]int, 3)); err == nil {
		t.Fatal("wrong t length must error")
	}
	if _, err := SymIndexOf(counts, []int{3, 0}); err == nil {
		t.Fatal("t above class size must error")
	}
	if _, err := SymIndexOf(counts, []int{-1, 0}); err == nil {
		t.Fatal("negative t must error")
	}
}

// Property: on random games with duplicated classes, the collapsed solver
// agrees with the legacy 2^n solver to 1e-12 for every n <= 16 — the
// ISSUE's equivalence bound. The worth is a random function of the count
// vector (so it is genuinely symmetric) with magnitudes around physical
// watt scales.
func TestSymmetricExactMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 16; n++ {
		for trial := 0; trial < 12; trial++ {
			// Random partition of n players into classes.
			var counts []int
			left := n
			for left > 0 {
				c := 1 + rng.Intn(left)
				counts = append(counts, c)
				left -= c
			}
			k := len(counts)
			class := make([]int, 0, n)
			for j, c := range counts {
				for x := 0; x < c; x++ {
					class = append(class, j)
				}
			}
			// Shuffle the assignment: symmetry must not depend on players of
			// a class being contiguous in ID order.
			rng.Shuffle(n, func(a, b int) { class[a], class[b] = class[b], class[a] })

			v, err := SymVectorCount(counts)
			if err != nil {
				t.Fatal(err)
			}
			worthByVec := make([]float64, v)
			scale := 0.0
			for i := range worthByVec {
				worthByVec[i] = 400 * rng.Float64()
				scale = math.Max(scale, worthByVec[i])
			}
			// Both solvers round; the bound is relative to the game's worth
			// scale (each accumulates ~2^n additions of w-weighted terms of
			// that magnitude).
			tol := 1e-12 * math.Max(1, scale)
			symPhi, err := SymmetricExact(counts, func(tv []int) float64 {
				idx, err := SymIndexOf(counts, tv)
				if err != nil {
					t.Fatal(err)
				}
				return worthByVec[idx]
			})
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := Exact(n, func(s vm.Coalition) float64 {
				idx, err := SymIndexOf(counts, maskCounts(s, class, k))
				if err != nil {
					t.Fatal(err)
				}
				return worthByVec[idx]
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				want := legacy[i]
				got := symPhi[class[i]]
				if math.Abs(got-want) > tol {
					t.Fatalf("n=%d counts=%v player %d (class %d): sym %.17g, legacy %.17g",
						n, counts, i, class[i], got, want)
				}
			}
			// Efficiency: Σ_j c_j·φ_j = v(grand) − v(empty).
			var sum float64
			for j, c := range counts {
				sum += float64(c) * symPhi[j]
			}
			want := worthByVec[v-1] - worthByVec[0]
			if math.Abs(sum-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("n=%d counts=%v: Σ c_j·φ_j = %g, want %g", n, counts, sum, want)
			}
		}
	}
}

// SymRetabulateInto with a dirty subset must land on the same table as a
// full tabulation of the new worth, touching only vectors with a dirty
// digit > 0.
func TestSymRetabulate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(4)
		counts := make([]int, k)
		for j := range counts {
			counts[j] = 1 + rng.Intn(4)
		}
		var sc SymScratch
		v, err := sc.Prepare(counts)
		if err != nil {
			t.Fatal(err)
		}
		oldW := make([]float64, v)
		newW := make([]float64, v)
		for i := range oldW {
			oldW[i] = rng.Float64()
			newW[i] = rng.Float64()
		}
		dirty := make([]bool, k)
		anyDirty := false
		for j := range dirty {
			dirty[j] = rng.Intn(2) == 0
			anyDirty = anyDirty || dirty[j]
		}
		// A clean-class vector's worth may not change between tabulations
		// (its coalition composition is identical), so make newW agree with
		// oldW on vectors whose dirty digits are all zero.
		tv := make([]int, k)
		wantEval := 0
		for i := range newW {
			if err := SymVectorAt(counts, i, tv); err != nil {
				t.Fatal(err)
			}
			hit := false
			for j := range tv {
				if dirty[j] && tv[j] > 0 {
					hit = true
				}
			}
			if hit {
				wantEval++
			} else {
				newW[i] = oldW[i]
			}
		}

		table := make([]float64, v)
		if err := SymTabulateInto(table, &sc, func(tv []int) float64 {
			i, _ := SymIndexOf(counts, tv)
			return oldW[i]
		}); err != nil {
			t.Fatal(err)
		}
		evaluated, err := SymRetabulateInto(table, &sc, func(tv []int) float64 {
			i, _ := SymIndexOf(counts, tv)
			return newW[i]
		}, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if evaluated != wantEval {
			t.Fatalf("counts=%v dirty=%v: evaluated %d vectors, want %d", counts, dirty, evaluated, wantEval)
		}
		for i := range table {
			if table[i] != newW[i] {
				t.Fatalf("counts=%v dirty=%v: table[%d] = %g, want %g", counts, dirty, i, table[i], newW[i])
			}
		}
		_ = anyDirty
	}
}

// With every class a singleton the collapsed game IS the mask game:
// counts (1,1,...,1) must reproduce Exact bit-for-bit modulo index
// permutation (mixed-radix with radix 2 equals the bitmask ordering).
func TestSymmetricSingletonClassesMatchMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 1; n <= 10; n++ {
		counts := make([]int, n)
		class := make([]int, n)
		for i := range counts {
			counts[i] = 1
			class[i] = i
		}
		table := make([]float64, 1<<uint(n))
		for i := range table {
			table[i] = rng.Float64() * 300
		}
		symPhi, err := SymmetricExact(counts, func(tv []int) float64 {
			var mask vm.Coalition
			for j, x := range tv {
				if x > 0 {
					mask = mask.With(vm.ID(j))
				}
			}
			return table[mask]
		})
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := ExactFromTable(n, table)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if math.Abs(symPhi[i]-legacy[i]) > 1e-12 {
				t.Fatalf("n=%d player %d: sym %.17g, legacy %.17g", n, i, symPhi[i], legacy[i])
			}
		}
	}
}

func TestSymScratchReuse(t *testing.T) {
	var sc SymScratch
	v1, err := sc.Prepare([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 12 || sc.NumVectors() != 12 || sc.NumPlayers() != 5 {
		t.Fatalf("Prepare(2,3): V=%d n=%d", sc.NumVectors(), sc.NumPlayers())
	}
	// Same counts: cheap no-op, same dimensions.
	if v, err := sc.Prepare([]int{2, 3}); err != nil || v != 12 {
		t.Fatalf("re-Prepare: V=%d err=%v", v, err)
	}
	// Different counts: resized.
	if v, err := sc.Prepare([]int{4}); err != nil || v != 5 || sc.NumPlayers() != 4 {
		t.Fatalf("Prepare(4): V=%d n=%d err=%v", v, sc.NumPlayers(), err)
	}
	// Invalid counts leave an error.
	if _, err := sc.Prepare([]int{0}); !errors.Is(err, ErrPlayers) {
		t.Fatalf("Prepare(0): %v", err)
	}
	// Unprepared scratch is rejected by the pipeline stages.
	var fresh SymScratch
	if err := SymTabulateInto(nil, &fresh, func([]int) float64 { return 0 }); !errors.Is(err, ErrPlayers) {
		t.Fatalf("unprepared tabulate: %v", err)
	}
	if err := SymExactFromTableInto(nil, &fresh, nil); !errors.Is(err, ErrPlayers) {
		t.Fatalf("unprepared solve: %v", err)
	}
	if _, err := SymRetabulateInto(nil, &fresh, func([]int) float64 { return 0 }, nil); !errors.Is(err, ErrPlayers) {
		t.Fatalf("unprepared retabulate: %v", err)
	}
}

// A wide game the mask solver cannot touch: 200 players in 3 classes with
// a closed-form worth (weighted coverage: v depends only on which classes
// are present). The Shapley value of such a game is computable from the
// collapsed formula directly with big.Rat, giving an independent oracle.
func TestSymmetricExactWideOracle(t *testing.T) {
	counts := []int{190, 6, 4}
	// v(t) = Σ_j present(t_j) · a_j: pure class-presence worth.
	a := []float64{120, 55, 30}
	phi, err := SymmetricExact(counts, func(tv []int) float64 {
		var v float64
		for j, x := range tv {
			if x > 0 {
				v += a[j]
			}
		}
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: for presence games the value splits per class independently —
	// player i of class j gets a_j · E[1/(position of first class-j player)]
	// ... computed exactly with big.Rat from the collapsed sum instead.
	oracle := symPresenceOracle(counts, a)
	for j := range counts {
		rel := math.Abs(phi[j]-oracle[j]) / math.Max(1e-300, math.Abs(oracle[j]))
		if rel > 1e-12 {
			t.Fatalf("class %d: phi %.17g, oracle %.17g (rel %.3g)", j, phi[j], oracle[j], rel)
		}
	}
	var sum float64
	for j, c := range counts {
		sum += float64(c) * phi[j]
	}
	want := a[0] + a[1] + a[2]
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("efficiency: Σ c_j·φ_j = %.17g, want %g", sum, want)
	}
}

// symPresenceOracle computes the exact Shapley value of the class-presence
// game in big.Rat arithmetic via the collapsed formula: for a player of
// class j, the marginal contribution is a_j iff t_j = 0 (plus nothing from
// other classes, whose presence the player cannot change), so
//
//	φ_j = a_j · Σ_{t: t_j=0} ∏_l C'(c_l, t_l) · w(Σt)
//
// with C' = C(c_j−1, ·) for the own class. Σ over all t with t_j = 0.
func symPresenceOracle(counts []int, a []float64) []float64 {
	n := 0
	for _, c := range counts {
		n += c
	}
	// Exact weights w[s] = s!(n−s−1)!/n!.
	w := make([]*big.Rat, n)
	fact := make([]*big.Int, n+1)
	fact[0] = big.NewInt(1)
	for i := 1; i <= n; i++ {
		fact[i] = new(big.Int).Mul(fact[i-1], big.NewInt(int64(i)))
	}
	for s := 0; s < n; s++ {
		num := new(big.Int).Mul(fact[s], fact[n-s-1])
		w[s] = new(big.Rat).SetFrac(num, fact[n])
	}
	binom := func(c, x int) *big.Int {
		if x < 0 || x > c {
			return big.NewInt(0)
		}
		r := new(big.Int).Mul(fact[c-x], fact[x])
		return new(big.Int).Div(fact[c], r)
	}
	out := make([]float64, len(counts))
	for j := range counts {
		// g[s] = Σ over t with t_j = 0, Σt = s of ∏ C'(c_l, t_l): the
		// coefficient generating function, built class by class.
		g := []*big.Rat{new(big.Rat).SetInt64(1)}
		for l, cl := range counts {
			limit := cl
			own := false
			if l == j {
				limit = 0 // t_j = 0 forced; C(c_j−1, 0) = 1
				own = true
			}
			_ = own
			ng := make([]*big.Rat, len(g)+limit)
			for i := range ng {
				ng[i] = new(big.Rat)
			}
			for s, gs := range g {
				if gs.Sign() == 0 {
					continue
				}
				for x := 0; x <= limit; x++ {
					term := new(big.Rat).SetInt(binom(cl, x))
					term.Mul(term, gs)
					ng[s+x].Add(ng[s+x], term)
				}
			}
			g = ng
		}
		total := new(big.Rat)
		for s, gs := range g {
			if s >= n {
				break
			}
			term := new(big.Rat).Mul(gs, w[s])
			total.Add(total, term)
		}
		f, _ := total.Float64()
		out[j] = a[j] * f
	}
	return out
}

// Satellite bugfix check: the multiplicative weight recurrence against a
// big.Rat factorial oracle up to n = 200 (and a few beyond), pinning the
// relative error under 1e-12 for every entry.
func TestWeightsBigRatOracle(t *testing.T) {
	ns := []int{1, 2, 3, 5, 8, 13, 16, 20, 24, 32, 64, 100, 128, 200, 256, SymMaxPlayers}
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

// Fuzz the index round-trip: any (counts, idx) pair that validates must
// decode to a vector that encodes back to idx.
func FuzzSymVectorRoundTrip(f *testing.F) {
	f.Add(3, 2, 1, 5)
	f.Add(1, 1, 1, 0)
	f.Add(10, 4, 2, 100)
	f.Fuzz(func(t *testing.T, c0, c1, c2, idx int) {
		counts := []int{c0, c1, c2}
		v, err := SymVectorCount(counts)
		if err != nil {
			t.Skip()
		}
		if idx < 0 || idx >= v {
			t.Skip()
		}
		tv := make([]int, 3)
		if err := SymVectorAt(counts, idx, tv); err != nil {
			t.Fatalf("decode valid idx %d: %v", idx, err)
		}
		for j, x := range tv {
			if x < 0 || x > counts[j] {
				t.Fatalf("decoded digit %d out of range: %v", j, tv)
			}
		}
		back, err := SymIndexOf(counts, tv)
		if err != nil {
			t.Fatal(err)
		}
		if back != idx {
			t.Fatalf("round trip %d -> %v -> %d", idx, tv, back)
		}
	})
}

// SymmetricExact computes the exact per-player Shapley value of a game
// whose players fall into symmetry classes of the given sizes, from a
// worth defined over type-count vectors. It is the allocating convenience
// form of the *Into pipeline; phi[j] is the share of one player of class
// j. O(V) worth evaluations and O(V·k) accumulation flops, against the
// 2^n of Exact.
func SymmetricExact(counts []int, worth SymWorthFunc) ([]float64, error) {
	if worth == nil {
		return nil, ErrNilWorth
	}
	var sc SymScratch
	v, err := sc.Prepare(counts)
	if err != nil {
		return nil, err
	}
	table := make([]float64, v)
	if err := SymTabulateInto(table, &sc, worth); err != nil {
		return nil, err
	}
	phi := make([]float64, len(counts))
	if err := SymExactFromTableInto(phi, &sc, table); err != nil {
		return nil, err
	}
	return phi, nil
}
