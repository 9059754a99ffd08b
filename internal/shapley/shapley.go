// Package shapley implements the cooperative-game machinery of the paper:
// the exact Shapley value over a coalition worth function (Eq. 4), the
// non-deterministic Shapley value over state-dependent worths (Eq. 7), and
// a permutation-sampling Monte-Carlo estimator for large player counts.
//
// Worth functions are defined over vm.Coalition bitmasks. By the paper's
// Remark 1 the worth of a coalition is the machine power with that
// coalition running, minus the machine's idle power, so v(∅) = 0 is the
// usual convention; the algorithms do not require it.
package shapley

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"vmpower/internal/vm"
)

// WorthFunc gives the worth v(S) of a coalition (aggregated power, W).
type WorthFunc func(vm.Coalition) float64

// Errors returned by the estimators.
var (
	ErrPlayers  = errors.New("shapley: player count out of range")
	ErrNilWorth = errors.New("shapley: nil worth function")
)

// ExactMaxPlayers caps Exact's 2^n enumeration. Beyond this use MonteCarlo.
const ExactMaxPlayers = vm.MaxPlayers

// weightsMemo caches the weight vector per player count. An entry is
// computed once, published with an atomic store and never mutated again,
// so the solvers can share the cached slice directly with no lock on the
// per-solve path (previously every ExactFromTable recomputed the O(n²)
// vector). A racing first computation at the same n publishes identical
// contents, so last-write-wins is harmless.
var weightsMemo [ExactMaxPlayers + 1]atomic.Pointer[[]float64]

// weightsShared returns the memoized weight vector. Callers must treat
// the slice as read-only; exported paths hand out copies (see Weights).
func weightsShared(n int) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if p := weightsMemo[n].Load(); p != nil {
		return *p, nil
	}
	w := computeWeights(n)
	weightsMemo[n].Store(&w)
	return w, nil
}

// computeWeights builds the weight vector with the multiplicative
// recurrence. Each entry accumulates at most 2(n−1) rounding steps, so
// the relative error stays below ~2n·ε — about 4.4e-14 at n = 200 and
// 1.2e-13 at n = vm.MaxVMs (pinned against a big.Rat oracle in the
// tests).
func computeWeights(n int) []float64 {
	w := make([]float64, n)
	for s := 0; s < n; s++ {
		// w[s] = s!(n-s-1)!/n!, computed multiplicatively to avoid
		// factorial overflow: 1/(n * C(n-1, s)).
		c := 1.0
		for i := 0; i < s; i++ {
			c = c * float64(n-1-i) / float64(i+1)
		}
		w[s] = 1 / (float64(n) * c)
	}
	return w
}

// Weights returns the Shapley coalition weights for an n-player game:
// Weights(n)[s] is the weight of a coalition of size s not containing the
// player, i.e. s!(n-s-1)!/n! — equivalently 1/((n-s)·C(n,s)) as written in
// the paper's Eq. 4. n may reach vm.MaxVMs, the widest host the exact
// tier serves; vectors up to ExactMaxPlayers are memoized. The returned
// slice is a private copy the caller may mutate.
func Weights(n int) ([]float64, error) {
	if n > ExactMaxPlayers && n <= vm.MaxVMs {
		return computeWeights(n), nil
	}
	w, err := weightsShared(n)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), w...), nil
}

// Exact computes the exact Shapley value Φ (Eq. 4) of an n-player game by
// full 2^n enumeration. The worth function is evaluated exactly once per
// coalition. Exact is O(2^n · n) time and O(2^n) space; the paper bounds
// practical n at 16 (one VM per logical core on a 16-core Xeon).
func Exact(n int, worth WorthFunc) ([]float64, error) {
	table, err := Tabulate(n, worth)
	if err != nil {
		return nil, err
	}
	return ExactFromTable(n, table)
}

// Tabulate evaluates worth over all 2^n coalitions into a dense table
// indexed by coalition bitmask.
func Tabulate(n int, worth WorthFunc) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	table := make([]float64, 1<<uint(n))
	if err := TabulateInto(table, n, worth); err != nil {
		return nil, err
	}
	return table, nil
}

// TabulateInto is Tabulate into a caller-owned table, which must have
// length exactly 2^n — the buffer-reuse form for per-tick callers that
// keep the table across solves.
func TabulateInto(table []float64, n int, worth WorthFunc) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if worth == nil {
		return ErrNilWorth
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	m := metrics()
	start := m.startTimer()
	for s := range table {
		table[s] = worth(vm.Coalition(s))
	}
	m.observeTabulate(start)
	return nil
}

// ExactFromTable computes the exact Shapley value from a pre-tabulated
// worth table of length 2^n (table[mask] = v(mask)).
func ExactFromTable(n int, table []float64) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	phi := make([]float64, n)
	if err := ExactFromTableInto(phi, n, table); err != nil {
		return nil, err
	}
	return phi, nil
}

// ExactFromTableInto is ExactFromTable into a caller-owned phi of length
// exactly n (zeroed here, so it can be reused across solves as-is).
func ExactFromTableInto(phi []float64, n int, table []float64) error {
	if n < 1 || n > ExactMaxPlayers {
		return fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(table) != 1<<uint(n) {
		return fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	if len(phi) != n {
		return fmt.Errorf("shapley: phi has %d entries, want %d", len(phi), n)
	}
	w, err := weightsShared(n)
	if err != nil {
		return err
	}
	m := metrics()
	start := m.startTimer()
	for i := range phi {
		phi[i] = 0
	}
	total := vm.Coalition(1) << uint(n)
	for s := vm.Coalition(0); s < total; s++ {
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
	m.observeAccumulate(start)
	return nil
}

// Banzhaf computes the (raw) Banzhaf value from a tabulated game: each
// player's average marginal contribution over all 2^(n−1) coalitions,
// weighted uniformly rather than by coalition size. Unlike the Shapley
// value it is NOT efficient — the shares need not sum to v(N) — which is
// exactly why the paper's axiomatization rejects it for power accounting;
// it is provided as a comparison rule (use NormalizeEfficient to rescale).
func Banzhaf(n int, table []float64) ([]float64, error) {
	if n < 1 || n > ExactMaxPlayers {
		return nil, fmt.Errorf("%w: n=%d", ErrPlayers, n)
	}
	if len(table) != 1<<uint(n) {
		return nil, fmt.Errorf("shapley: table has %d entries, want 2^%d", len(table), n)
	}
	phi := make([]float64, n)
	total := vm.Coalition(1) << uint(n)
	for s := vm.Coalition(0); s < total; s++ {
		vs := table[s]
		for i := 0; i < n; i++ {
			id := vm.ID(i)
			if s.Contains(id) {
				continue
			}
			phi[i] += table[s.With(id)] - vs
		}
	}
	scale := 1 / float64(uint64(1)<<uint(n-1))
	for i := range phi {
		phi[i] *= scale
	}
	return phi, nil
}

// normalizeMinDenomFrac is the cancellation guard of NormalizeEfficient:
// proportional rescaling is abandoned when |Σφ| falls below this
// fraction of Σ|φ|.
const normalizeMinDenomFrac = 1e-9

// NormalizeEfficient rescales an allocation so it sums to target (e.g.
// the measured power), preserving proportions.
//
// Contract for degenerate inputs: an all-zero allocation is returned as
// zeros. Shares of mixed sign are legitimate (interference makes Φ_i < 0
// meaningful — see Interactions), but they can cancel to a net sum near
// zero while the individual shares stay large; dividing by that sum
// would scale the output toward ±∞. When |Σφ| < 1e-9·Σ|φ| the
// proportional rescale is therefore replaced by a uniform additive
// shift of (target − Σφ)/n: the result still sums to target and
// preserves the differences between shares instead of amplifying
// cancellation noise.
func NormalizeEfficient(phi []float64, target float64) []float64 {
	var sum, sumAbs float64
	for _, p := range phi {
		sum += p
		sumAbs += math.Abs(p)
	}
	out := make([]float64, len(phi))
	if sumAbs == 0 {
		return out
	}
	if math.Abs(sum) < normalizeMinDenomFrac*sumAbs {
		shift := (target - sum) / float64(len(phi))
		for i, p := range phi {
			out[i] = p + shift
		}
		return out
	}
	for i, p := range phi {
		out[i] = p * target / sum
	}
	return out
}

// MarginalContribution returns v(S ∪ {i}) − v(S), player i's marginal
// contribution to coalition S (i must not already be in S).
func MarginalContribution(worth WorthFunc, s vm.Coalition, i vm.ID) (float64, error) {
	if worth == nil {
		return 0, ErrNilWorth
	}
	if s.Contains(i) {
		return 0, fmt.Errorf("shapley: player %d already in coalition %s", i, s)
	}
	return worth(s.With(i)) - worth(s), nil
}
