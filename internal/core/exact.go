package core

import (
	"fmt"
	"math/bits"

	"vmpower/internal/obs"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
)

// This file implements the exact tier: the Shapley value of the VHC game
// in closed form, plus one correction per coalition whose served worth
// is not the linear one (DESIGN.md §12).
//
// Within a combination A the model is linear (Eqs. 8–10), so apart from
// exact-match table hits and the clamp at 0 a coalition's worth is
// L(S) = Σ_{ℓ∈S} ⟨w_{A(S),κ(ℓ)}, c_ℓ⟩. For a running VM i of class j
// among n running VMs, with C_q the summed state of class q:
//
//	φ_i = ⟨α_j, c_i⟩ + β_j + (dyn − L(N))/n + Σ_{S∈E} (v(S) − L(S))·ψ_i(S)
//	α_j = Σ_{A ∌ j} E_j(A)·w_{A∪j, j}
//	β_j = Σ_{∅ ≠ A ∌ j} Σ_{q∈A} Q_q(A)·⟨w_{A∪j,q} − w_{A,q}, C_q⟩
//
// E_j(A) is the Shapley weight of the coalitions S ⊆ N∖{i} whose classes
// other than j are exactly A, and Q_q(A) that of the coalitions of
// classes exactly A weighted by |S∩q|/|q|. Counted by size, those
// coalitions are the coefficients of products of (1+x)^m − 1 polynomials
// over the class sizes, and summing Σ_s C(m−1, s−b)·p_n(s) over the
// members of i's own class (or of q) leaves the weight p_{n−m+1}(b) of a
// game in which that class is one player. E is the set of proper,
// non-empty coalitions whose served worth v(S) is a table mean or the
// clamp at 0, and ψ_i(S) = p(|S|−1) for i ∈ S and −p(|S|) otherwise is
// the Shapley value of the game that is 1 at S alone. A depth-first
// search over count vectors finds E group by group; a vector of t_g
// members of each group g stands for ∏ C(c_g, t_g) coalitions.

// exactBudget is the group space V = ∏(c_g+1) the exact tier serves
// whatever its correction search costs. The search visits at most V
// count vectors per searched combo, and usually a handful. But a model
// whose exact-match keys cover the online states (offline samples drawn
// from sub-coalition-like states) defeats the key box, and the search
// then visits nearly all of V at ~170 ns a vector: ~0.7 s at 2^22 on a
// 2-vCPU VM. Past the budget the search runs under searchCap.
const exactBudget = 1 << 22

// searchCap caps the correction search's nodes (visit calls) on a tick
// whose group space is past exactBudget. A search that finishes under
// it serves the tick exactly; one that runs past it hands the tick to
// Monte Carlo, or fails it on hosts past the coalition mask. 24 distinct
// VMs on SPEC traces are pruned at every combo's root (0 nodes), while
// 24 on synthetic streams, whose uncapped searches take 0.15–6.2 M nodes
// (15–570 ms) per tick, stop here after ~90 µs: ~7% of the ~1.3 ms
// Monte-Carlo tick that follows, on a 2-vCPU VM.
const searchCap = 1 << 10

// exactScratch is the exact tier's work space; see the file comment for
// the quantities it holds.
type exactScratch struct {
	weights map[int][]float64 // Shapley weights by player count
	binom   []float64         // C(c_g, t) row per group, back to back
	rowOf   []int             // group -> offset of its row in binom
	comboOf []vhc.ComboMask   // local class subset u -> its combo
	deg     []int             // u -> Σ_{a∈u} |a|
	poly    []float64         // F[u] = ∏_{a∈u} ((1+x)^|a| − 1), back to back
	polyOff []int             // u -> offset of F[u] in poly
	e, q    []float64         // E and Q per (u, a ∉ u), index u·r + a
	wc      []float64         // ⟨w_{combo(u)} slot a, C_a⟩ per (u, a ∈ u)
	search  search
	phi     []float64 // per group
	visited int       // count vectors the search evaluated
}

// solve returns each group's share of the tick's game, whose grand
// coalition is worth dyn, and true. If the correction search would take
// more than limit nodes it stops there and solve returns nil and false.
// Once the corrections are found it marks the span "worth". A
// combination reachable by a proper coalition must be trained; the
// running set's own may be untrained when only the running set has it.
func (x *exactScratch) solve(plan *vhc.Plan, g *groupScratch, dyn float64, limit int, sp *obs.Span) ([]float64, bool, error) {
	const k = int(vm.NumComponents)
	n, r := len(g.members), len(g.classes)
	full := 1<<r - 1
	x.phi = resize(x.phi, len(g.groups))
	x.visited = 0
	x.search.nodes = 0
	if n == 1 {
		x.phi[0] = dyn
		sp.Mark("worth")
		return x.phi, true, nil
	}
	x.comboOf = resize(x.comboOf, full+1)
	x.deg = resize(x.deg, full+1)
	x.comboOf[0], x.deg[0] = 0, 0
	for u := 1; u <= full; u++ {
		a := bits.TrailingZeros(uint(u))
		x.comboOf[u] = x.comboOf[u&(u-1)] | g.classes[a].bit
		x.deg[u] = x.deg[u&(u-1)] + g.classes[a].size
		if plan.Weights(x.comboOf[u]) == nil && (u != full || n != r) {
			return nil, false, fmt.Errorf("%w: %s", vhc.ErrUntrained, x.comboOf[u])
		}
	}
	p, err := x.shapleyWeights(n)
	if err != nil {
		return nil, false, err
	}

	// The corrections.
	x.rowOf = resize(x.rowOf, len(g.groups))
	x.binom = x.binom[:0]
	for i, gr := range g.groups {
		x.rowOf[i] = len(x.binom)
		x.binom = appendBinomRow(x.binom, gr.count)
	}
	s := &x.search
	s.reset(plan, g, p, x.binom, x.rowOf, limit)
	for u := 1; u <= full && s.nodes <= limit; u++ {
		s.run(u, x.comboOf[u])
	}
	x.visited = s.visited
	if s.nodes > limit {
		return nil, false, nil
	}
	sp.Mark("worth")

	// The linear part.
	x.polyOff = resize(x.polyOff, full+2)
	x.polyOff[0] = 0
	for u := 0; u <= full; u++ {
		x.polyOff[u+1] = x.polyOff[u] + x.deg[u] + 1
	}
	x.poly = resize(x.poly, x.polyOff[full+1])
	clear(x.poly)
	x.poly[0] = 1
	x.binom = x.binom[:0]
	for u := 1; u <= full; u++ {
		a := bits.TrailingZeros(uint(u))
		src := x.poly[x.polyOff[u&(u-1)]:x.polyOff[u&(u-1)+1]]
		dst := x.poly[x.polyOff[u]:x.polyOff[u+1]]
		x.binom = appendBinomRow(x.binom[:0], g.classes[a].size)
		for b, f := range src {
			for c := 1; c < len(x.binom); c++ {
				dst[b+c] += f * x.binom[c]
			}
		}
	}
	x.e = resize(x.e, (full+1)*r)
	x.q = resize(x.q, (full+1)*r)
	x.wc = resize(x.wc, (full+1)*r)
	for u := 0; u <= full; u++ {
		f := x.poly[x.polyOff[u]:x.polyOff[u+1]]
		w := plan.Weights(x.comboOf[u])
		for a := 0; a < r; a++ {
			if u&(1<<a) != 0 {
				var d float64
				if w != nil {
					off := bits.OnesCount(uint(u)&(1<<a-1)) * k
					for c := 0; c < k; c++ {
						d += float64(w[off+c] * g.classes[a].sum[c])
					}
				}
				x.wc[u*r+a] = d
				continue
			}
			pa, err := x.shapleyWeights(n - g.classes[a].size + 1)
			if err != nil {
				return nil, false, err
			}
			var e, q float64
			for b, fb := range f {
				e += fb * pa[b]
				if b+1 < len(pa) {
					q += fb * pa[b+1]
				}
			}
			x.e[u*r+a], x.q[u*r+a] = e, q
		}
	}
	var lin float64 // L(N)
	for a := 0; a < r; a++ {
		lin += x.wc[full*r+a]
	}
	share := (dyn - lin) / float64(n)
	for j := 0; j < r; j++ {
		var alpha [k]float64
		var beta float64
		rest := full &^ (1 << j)
		for u := rest; ; u = (u - 1) & rest {
			uj := u | 1<<j
			if w := plan.Weights(x.comboOf[uj]); w != nil {
				e, off := x.e[u*r+j], bits.OnesCount(uint(uj)&(1<<j-1))*k
				for c := range alpha {
					alpha[c] += e * w[off+c]
				}
			}
			for m := u; m != 0; m &= m - 1 {
				q := bits.TrailingZeros(uint(m))
				beta += x.q[(u&^(1<<q))*r+q] * (x.wc[uj*r+q] - x.wc[u*r+q])
			}
			if u == 0 {
				break
			}
		}
		for i, gr := range g.groups {
			if g.classIndex(gr.bit) != j {
				continue
			}
			var dot float64
			for c := range alpha {
				dot += float64(alpha[c] * gr.state[c])
			}
			x.phi[i] = dot + beta + share + s.corr[i] + s.common
		}
	}
	return x.phi, true, nil
}

// shapleyWeights returns the Shapley weights p(s) = s!(n−s−1)!/n! of an
// n-player game, cached by n.
func (x *exactScratch) shapleyWeights(n int) ([]float64, error) {
	if w, ok := x.weights[n]; ok {
		return w, nil
	}
	w, err := shapley.Weights(n)
	if err != nil {
		return nil, err
	}
	if x.weights == nil {
		x.weights = make(map[int][]float64)
	}
	x.weights[n] = w
	return w, nil
}

// search finds the coalitions whose served worth is not linear, one
// combination at a time, and sums their corrections per group. A combo
// is searched only if it has exact-match table entries or a group whose
// per-member linear term is negative; the search descends group by
// group, choosing how many of the group's members the coalition holds,
// and prunes a subtree whose reachable feature sums all miss the table's
// key box and whose reachable linear worth cannot go negative. It counts
// its nodes and stops once they pass limit.
type search struct {
	plan   *vhc.Plan
	g      *groupScratch
	p      []float64 // Shapley weights of the n-player game
	binom  []float64
	rowOf  []int
	n      int
	combo  vhc.ComboMask
	table  bool // the combo has exact-match entries
	lo, hi [vhc.MaxFeatureLen]float64
	flen   int

	order  []int     // the combo's groups, in group order
	base   []int     // per position: feature offset of its class slot
	cls    []int     // per position: local class index
	last   []bool    // per position: last group of its class
	term   []float64 // per position: ⟨w_{A,class}, state⟩ per member
	negRem []float64 // per position d: the most negative linear worth groups d.. add
	minRem []float64 // per position d and feature: the least sum groups d.. add
	maxRem []float64 // per position d and feature: the greatest sum groups d.. add

	feat [vhc.MaxFeatureLen]float64 // the current vector's features
	has  [vhc.MaxTypes]bool         // local class has a member so far
	t    []int                      // per group: members in the current vector

	corr    []float64 // per group: correction of each member's share
	common  float64   // correction of every running VM's share
	visited int
	nodes   int // visit calls so far
	limit   int // the node cap
}

// reset binds the search to a tick and clears its sums.
func (s *search) reset(plan *vhc.Plan, g *groupScratch, p, binom []float64, rowOf []int, limit int) {
	s.plan, s.g, s.p, s.binom, s.rowOf = plan, g, p, binom, rowOf
	s.n = len(g.members)
	s.t = resize(s.t, len(g.groups))
	clear(s.t)
	s.corr = resize(s.corr, len(g.groups))
	clear(s.corr)
	s.common, s.visited, s.nodes, s.limit = 0, 0, 0, limit
}

// run searches the count vectors whose classes are exactly the local
// class subset u, of combination combo.
func (s *search) run(u int, combo vhc.ComboMask) {
	const k = int(vm.NumComponents)
	w := s.plan.Weights(combo)
	if w == nil {
		return // the running set's own combo, reached by no proper coalition
	}
	s.combo = combo
	s.order, s.base, s.cls, s.term = s.order[:0], s.base[:0], s.cls[:0], s.term[:0]
	neg := false
	for i, gr := range s.g.groups {
		a := s.g.classIndex(gr.bit)
		if u&(1<<a) == 0 {
			continue
		}
		off := bits.OnesCount(uint(u)&(1<<a-1)) * k
		var t float64
		for c := 0; c < k; c++ {
			t += float64(w[off+c] * gr.state[c])
		}
		neg = neg || t < 0
		s.order, s.base, s.cls, s.term = append(s.order, i), append(s.base, off), append(s.cls, a), append(s.term, t)
	}
	s.table = s.plan.TableBox(combo, &s.lo, &s.hi)
	if !s.table && !neg {
		return
	}
	d := len(s.order)
	s.flen = bits.OnesCount(uint(u)) * k
	s.last = resize(s.last, d)
	var seen [vhc.MaxTypes]bool
	for i := d - 1; i >= 0; i-- {
		s.last[i] = !seen[s.cls[i]]
		seen[s.cls[i]] = true
	}
	s.negRem = resize(s.negRem, d+1)
	s.minRem = resize(s.minRem, (d+1)*s.flen)
	s.maxRem = resize(s.maxRem, (d+1)*s.flen)
	s.negRem[d] = 0
	clear(s.minRem[d*s.flen:])
	clear(s.maxRem[d*s.flen:])
	for i := d - 1; i >= 0; i-- {
		gr := &s.g.groups[s.order[i]]
		c := float64(gr.count)
		s.negRem[i] = s.negRem[i+1] + c*min(0, s.term[i])
		copy(s.minRem[i*s.flen:(i+1)*s.flen], s.minRem[(i+1)*s.flen:])
		copy(s.maxRem[i*s.flen:(i+1)*s.flen], s.maxRem[(i+1)*s.flen:])
		for x, v := range gr.state {
			f := i*s.flen + s.base[i] + x
			s.minRem[f] += c * min(0, v)
			s.maxRem[f] += c * max(0, v)
		}
	}
	clear(s.feat[:s.flen])
	s.has = [vhc.MaxTypes]bool{}
	if s.feasible(0, 0) {
		s.visit(0, 0, 0, 1)
	}
}

// feasible reports whether the groups from position d on can still
// complete the current partial vector, whose linear worth is lin, into a
// coalition that hits the table or clamps.
func (s *search) feasible(d int, lin float64) bool {
	if lin+s.negRem[d] < 0 {
		return true
	}
	if !s.table {
		return false
	}
	mn, mx := s.minRem[d*s.flen:], s.maxRem[d*s.flen:]
	for f := 0; f < s.flen; f++ {
		if s.feat[f]+mn[f] > s.hi[f] || s.feat[f]+mx[f] < s.lo[f] {
			return false
		}
	}
	return true
}

// visit chooses the member count of the group at position d. size is the
// coalition size so far, lin its linear worth and mult the number of
// coalitions the partial vector stands for. A group's state is added
// once per member, so a slot's features are the member-by-member sums
// vhc.Plan.Eval forms when groups are contiguous in VM-ID order.
func (s *search) visit(d, size int, lin, mult float64) {
	const k = int(vm.NumComponents)
	if s.nodes++; s.nodes > s.limit {
		return
	}
	if d == len(s.order) {
		s.leaf(size, lin, mult)
		return
	}
	i := s.order[d]
	gr := &s.g.groups[i]
	b, a := s.base[d], s.cls[d]
	saved := *(*vm.State)(s.feat[b : b+k])
	had := s.has[a]
	first := 0
	if s.last[d] && !had {
		first = 1 // the class's last chance to join the coalition
	}
	row := s.binom[s.rowOf[i]:]
	for t := 0; t <= gr.count && s.nodes <= s.limit; t++ {
		if t > 0 {
			for c := 0; c < k; c++ {
				s.feat[b+c] += gr.state[c]
			}
			lin += s.term[d]
			s.has[a] = true
		}
		if t < first || !s.feasible(d+1, lin) {
			continue
		}
		s.t[i] = t
		s.visit(d+1, size+t, lin, mult*row[t])
	}
	*(*vm.State)(s.feat[b : b+k]) = saved
	s.has[a] = had
	s.t[i] = 0
}

// leaf corrects the shares for the complete vector: its coalitions are
// worth the table mean on a hit, 0 when the linear worth lin is
// negative, and lin otherwise, which needs no correction. A correction
// of mult coalitions of size s, each off by v − lin, moves every member's
// share by its ψ: p(s−1) for the t_g/c_g of group g's members inside,
// −p(s) for the rest.
func (s *search) leaf(size int, lin, mult float64) {
	if size == s.n {
		return // the running grand coalition is worth dyn, corrected by δ
	}
	s.visited++
	var v float64
	if mean, ok := s.plan.TableMean(s.combo, &s.feat); ok {
		v = mean
	} else if lin >= 0 {
		return
	}
	k := (v - lin) * mult
	s.common -= k * s.p[size]
	c := k * (s.p[size-1] + s.p[size])
	for _, i := range s.order {
		if t := s.t[i]; t > 0 {
			s.corr[i] += c * float64(t) / float64(s.g.groups[i].count)
		}
	}
}

// appendBinomRow appends C(m, t) for t = 0..m. Each entry carries at
// most ~t rounding steps; entries below 2^53 are exact.
func appendBinomRow(dst []float64, m int) []float64 {
	c := 1.0
	dst = append(dst, c)
	for t := 1; t <= m; t++ {
		c = c * float64(m-t+1) / float64(t)
		dst = append(dst, c)
	}
	return dst
}

// resize returns s with length n, reallocating only when it must.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
