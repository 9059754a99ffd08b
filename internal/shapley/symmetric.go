package shapley

// This file implements the symmetry-collapsed exact Shapley solver. When
// several players are interchangeable — same VHC class and bit-equal
// quantized state, so every worth the game can ask about is invariant
// under permuting them — the game is fully described by how many members
// of each symmetry class a coalition contains. Collapsing the 2^n
// coalition lattice to type-count vectors shrinks the enumeration from
// 2^n masks to V = ∏_j (c_j + 1) vectors (strictly fewer whenever any
// class has c_j >= 2), which takes exact allocation past the 2^n wall to
// hosts with hundreds of VMs as long as the VM population repeats
// (Lupia et al., "Computing the Shapley Value in Allocation Problems").
//
// Derivation. Fix classes 1..k with sizes c_1..c_k, n = Σ c_j, and a
// worth v(t) over count vectors t (0 <= t_j <= c_j). For a player i of
// class j, grouping the classic sum Φ_i = Σ_S w(|S|)(v(S∪{i})−v(S)) by
// the count vector of S (which must have t_j <= c_j − 1 since i ∉ S):
//
//	Φ_j = Σ_t C(c_j−1, t_j) · ∏_{l≠j} C(c_l, t_l) · w(Σt) · (v(t+e_j) − v(t))
//
// Using C(c_j−1, t_j) = C(c_j, t_j) · (c_j − t_j)/c_j, the per-vector
// coefficient is B(t) · (c_j − t_j)/c_j · w(Σt) with B(t) = ∏ C(c_l, t_l):
// one shared multinomial per vector plus a two-flop per-class ratio. The
// binomial rows are precomputed per class (error ~c_j·ε each) and combined
// per vector with k multiplications, rather than dragged through one long
// incremental chain over all V vectors whose ~V·ε rounding error would
// breach the 1e-12 equivalence bound at V ≈ 2^16.
//
// Vectors are indexed in mixed radix with class 0 as the fastest digit:
// index(t) = Σ t_j · stride_j, stride_0 = 1, stride_j = stride_{j−1} ·
// (c_{j−1}+1). Plain counting enumerates them in odometer order, the
// empty vector first (index 0) and the grand vector t = c last (index
// V−1) — the same conventions the mask-based tables use, so callers
// overwrite the grand entry with the measured power the same way.

import (
	"fmt"

	"vmpower/internal/vm"
)

// SymMaxPlayers caps the total player count n = Σ c_j of the
// symmetry-collapsed solver (vm.MaxVMs, the VM-set ceiling). Every
// intermediate stays comfortably inside float64 at this bound: the
// largest binomial C(511, 255) ≈ 1.1e153 and the smallest weight
// 1/(512·C(511,255)) ≈ 1.8e-156 are both far from overflow and the
// subnormal range.
const SymMaxPlayers = vm.MaxVMs

// SymMaxVectors caps the collapsed enumeration size V = ∏ (c_j + 1): a
// hard API bound (the table alone is 8·V bytes) under which the product
// arithmetic below cannot overflow. Callers enforce their own, smaller
// per-tick budgets.
const SymMaxVectors = 1 << 26

// SymWorthFunc gives the worth v(t) of a coalition described by its
// per-class member counts. The solver reuses the slice between calls:
// implementations must not retain or mutate it.
type SymWorthFunc func(t []int) float64

// validCounts checks the class-size vector: at least one class, every
// class non-empty, and the totals within the solver's caps. It returns
// (V, n).
func validCounts(counts []int) (int, int, error) {
	if len(counts) == 0 {
		return 0, 0, fmt.Errorf("%w: no symmetry classes", ErrPlayers)
	}
	v, n := 1, 0
	for j, c := range counts {
		if c < 1 {
			return 0, 0, fmt.Errorf("%w: class %d has %d members", ErrPlayers, j, c)
		}
		n += c
		if n > SymMaxPlayers {
			return 0, 0, fmt.Errorf("%w: n=%d exceeds %d", ErrPlayers, n, SymMaxPlayers)
		}
		v *= c + 1
		if v > SymMaxVectors {
			return 0, 0, fmt.Errorf("%w: %d count vectors exceed %d", ErrPlayers, v, SymMaxVectors)
		}
	}
	return v, n, nil
}

// SymVectorCount returns V = ∏ (c_j + 1), the number of distinct
// type-count vectors of a game with the given class sizes, validating
// the sizes against the solver's caps.
func SymVectorCount(counts []int) (int, error) {
	v, _, err := validCounts(counts)
	return v, err
}

// SymVectorAt decodes a vector index into t (len(counts) entries),
// inverse of SymIndexOf. Index 0 is the empty vector; index V−1 the
// grand vector t = counts.
func SymVectorAt(counts []int, idx int, t []int) error {
	v, _, err := validCounts(counts)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= v {
		return fmt.Errorf("shapley: vector index %d outside [0,%d)", idx, v)
	}
	if len(t) != len(counts) {
		return fmt.Errorf("shapley: t has %d entries, want %d", len(t), len(counts))
	}
	for j, c := range counts {
		t[j] = idx % (c + 1)
		idx /= c + 1
	}
	return nil
}

// SymIndexOf returns the mixed-radix index of count vector t.
func SymIndexOf(counts []int, t []int) (int, error) {
	if _, _, err := validCounts(counts); err != nil {
		return 0, err
	}
	if len(t) != len(counts) {
		return 0, fmt.Errorf("shapley: t has %d entries, want %d", len(t), len(counts))
	}
	idx, stride := 0, 1
	for j, c := range counts {
		if t[j] < 0 || t[j] > c {
			return 0, fmt.Errorf("shapley: t[%d]=%d outside [0,%d]", j, t[j], c)
		}
		idx += t[j] * stride
		stride *= c + 1
	}
	return idx, nil
}

// SymScratch holds the per-game tables of the collapsed solver — the
// mixed-radix strides, the n-player coalition weights, the per-class
// binomial rows and the decode buffer — so per-tick callers recompute
// them only when the class structure actually changes. The zero value is
// ready; Prepare before use.
type SymScratch struct {
	counts []int
	stride []int
	w      []float64   // w[s] = s!(n−s−1)!/n!, shared read-only for n <= ExactMaxPlayers
	binom  [][]float64 // binom[j][x] = C(c_j, x)
	t      []int       // odometer decode buffer
	n      int         // Σ counts
	v      int         // ∏ (counts+1)
}

// NumVectors returns V for the prepared class sizes (0 before Prepare).
func (sc *SymScratch) NumVectors() int { return sc.v }

// NumPlayers returns n for the prepared class sizes (0 before Prepare).
func (sc *SymScratch) NumPlayers() int { return sc.n }

// Prepare sizes the scratch for the given class sizes and returns V. A
// call with the sizes already prepared is a cheap no-op, so per-tick
// callers can Prepare unconditionally.
func (sc *SymScratch) Prepare(counts []int) (int, error) {
	if len(sc.counts) == len(counts) && sc.v > 0 {
		same := true
		for j, c := range counts {
			if sc.counts[j] != c {
				same = false
				break
			}
		}
		if same {
			return sc.v, nil
		}
	}
	v, n, err := validCounts(counts)
	if err != nil {
		return 0, err
	}
	w, err := weightsFor(n)
	if err != nil {
		return 0, err
	}
	k := len(counts)
	sc.counts = append(sc.counts[:0], counts...)
	sc.w = w
	sc.n, sc.v = n, v
	if cap(sc.stride) < k {
		sc.stride = make([]int, k)
		sc.t = make([]int, k)
	}
	sc.stride = sc.stride[:k]
	sc.t = sc.t[:k]
	stride := 1
	for j, c := range counts {
		sc.stride[j] = stride
		stride *= c + 1
	}
	if cap(sc.binom) < k {
		sc.binom = make([][]float64, k)
	}
	sc.binom = sc.binom[:k]
	for j, c := range counts {
		row := sc.binom[j]
		if cap(row) < c+1 {
			row = make([]float64, c+1)
		}
		row = row[:c+1]
		// Multiplicative Pascal row: exact for small c, ~2c·ε for large.
		row[0] = 1
		for x := 0; x < c; x++ {
			row[x+1] = row[x] * float64(c-x) / float64(x+1)
		}
		sc.binom[j] = row
	}
	return v, nil
}

// SymTabulateInto evaluates worth over every count vector into table
// (len V), in mixed-radix odometer order: empty vector first, grand
// vector last.
func SymTabulateInto(table []float64, sc *SymScratch, worth SymWorthFunc) error {
	if worth == nil {
		return ErrNilWorth
	}
	if sc.v == 0 {
		return fmt.Errorf("%w: scratch not prepared", ErrPlayers)
	}
	if len(table) != sc.v {
		return fmt.Errorf("shapley: table has %d entries, want %d", len(table), sc.v)
	}
	t := sc.t
	for j := range t {
		t[j] = 0
	}
	for idx := 0; idx < sc.v; idx++ {
		table[idx] = worth(t)
		for j := range t {
			if t[j] < sc.counts[j] {
				t[j]++
				break
			}
			t[j] = 0
		}
	}
	return nil
}

// SymRetabulateInto re-evaluates only the count vectors touching a dirty
// class — those with t_j > 0 for some j with dirty[j] — leaving every
// other entry of the previous tabulation in place, and returns how many
// entries it evaluated. A vector over clean classes only describes a
// coalition whose composition is unchanged, so its worth is reused
// verbatim; this is the count-vector analogue of the mask path's
// dirty-coalition recurrence. Callers that override entries out of band
// (the grand vector's measured power) must rewrite them after this
// returns.
func SymRetabulateInto(table []float64, sc *SymScratch, worth SymWorthFunc, dirty []bool) (int, error) {
	if worth == nil {
		return 0, ErrNilWorth
	}
	if sc.v == 0 {
		return 0, fmt.Errorf("%w: scratch not prepared", ErrPlayers)
	}
	if len(table) != sc.v {
		return 0, fmt.Errorf("shapley: table has %d entries, want %d", len(table), sc.v)
	}
	if len(dirty) != len(sc.counts) {
		return 0, fmt.Errorf("shapley: %d dirty flags for %d classes", len(dirty), len(sc.counts))
	}
	t := sc.t
	for j := range t {
		t[j] = 0
	}
	evaluated := 0
	active := 0 // dirty classes with t_j > 0 in the current vector
	for idx := 0; idx < sc.v; idx++ {
		if active > 0 {
			table[idx] = worth(t)
			evaluated++
		}
		for j := range t {
			if t[j] < sc.counts[j] {
				t[j]++
				if dirty[j] && t[j] == 1 {
					active++
				}
				break
			}
			if dirty[j] {
				active--
			}
			t[j] = 0
		}
	}
	return evaluated, nil
}

// SymExactFromTableInto computes the per-player Shapley value of each
// symmetry class from a tabulated collapsed game: phi[j] is the share of
// ONE player of class j (the class total is c_j·phi[j]; efficiency reads
// Σ_j c_j·phi[j] = v(grand) − v(empty)). phi must have one entry per
// class; it is zeroed here.
func SymExactFromTableInto(phi []float64, sc *SymScratch, table []float64) error {
	if sc.v == 0 {
		return fmt.Errorf("%w: scratch not prepared", ErrPlayers)
	}
	k := len(sc.counts)
	if len(phi) != k {
		return fmt.Errorf("shapley: phi has %d entries, want %d", len(phi), k)
	}
	if len(table) != sc.v {
		return fmt.Errorf("shapley: table has %d entries, want %d", len(table), sc.v)
	}
	for j := range phi {
		phi[j] = 0
	}
	t := sc.t
	for j := range t {
		t[j] = 0
	}
	s := 0 // Σ t, maintained incrementally across the odometer walk
	for idx := 0; idx < sc.v; idx++ {
		if s < sc.n { // the grand vector admits no marginal contributions
			b := 1.0
			for j := 0; j < k; j++ {
				b *= sc.binom[j][t[j]]
			}
			base := b * sc.w[s]
			vs := table[idx]
			for j := 0; j < k; j++ {
				cj := sc.counts[j]
				tj := t[j]
				if tj == cj {
					continue
				}
				// C(c_j−1, t_j) = C(c_j, t_j)·(c_j−t_j)/c_j.
				phi[j] += base * (float64(cj-tj) / float64(cj)) * (table[idx+sc.stride[j]] - vs)
			}
		}
		for j := range t {
			if t[j] < sc.counts[j] {
				t[j]++
				s++
				break
			}
			s -= t[j]
			t[j] = 0
		}
	}
	return nil
}
