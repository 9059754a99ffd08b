package core

import (
	"fmt"

	"vmpower/internal/hypervisor"
	"vmpower/internal/obs"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
)

// This file implements the symmetry-collapsed exact tick: when the
// running VMs group into k < n classes sharing a VHC class bit and a
// bit-equal quantized state, every worth the game can ask about is
// invariant under permuting a class's members, so the tick solves the
// collapsed game over type-count vectors (V = ∏(c_j+1) entries) instead
// of 2^n coalition masks. This is both a large win on dense repeated
// populations within the mask range and the ONLY exact route past
// vm.MaxPlayers, where coalition bitmasks cannot exist at all.

// symVectorBudget caps the collapsed enumeration per tick on wide hosts
// (past vm.MaxPlayers, where there is no mask fallback): 2^22 entries is
// a 32 MiB table and a few tens of ms of evaluation — comfortably inside
// a 1 Hz tick — while far under shapley.SymMaxVectors' API bound.
const symVectorBudget = 1 << 22

// symScratch is the cross-tick state of the collapsed path, part of a
// caller's scratch like maskScratch.
type symScratch struct {
	members []int          // running VM ids, ascending
	group   map[symKey]int // class key -> class index, this tick
	classes []vhc.SymClass // this tick's classes, first-seen order
	counts  []int          // classes[j].Count, the solver's class sizes
	classOf []int          // VM id -> class index (-1 when stopped)
	dirty   []bool         // per-class state-changed flags vs prev

	prev      []vhc.SymClass // previous tick's classes
	prevPlan  *vhc.Plan      // plan the previous table was evaluated under
	prevValid bool           // table holds the previous tick's worths

	eval  vhc.SymEval
	sc    shapley.SymScratch
	table []float64
	phi   []float64
}

// symKey identifies a symmetry class: the compiled VHC class bit plus the
// bit-equal quantized state every member shares.
type symKey struct {
	bit   vhc.ComboMask
	state vm.State
}

// runningMembers fills sc.sym.members with the running VM ids in
// ascending order, from the wide-safe Running flags when the snapshot
// carries them (hypervisor.Collect always does) and from the Coalition
// mask otherwise (replayed records, and snapshots built by hand in tests
// and experiments).
func runningMembers(sc *scratch, snap hypervisor.Snapshot) []int {
	s := &sc.sym
	s.members = s.members[:0]
	if snap.Running != nil {
		for i, r := range snap.Running {
			if r {
				s.members = append(s.members, i)
			}
		}
		return s.members
	}
	for _, id := range snap.Coalition.Members() {
		s.members = append(s.members, int(id))
	}
	return s.members
}

// buildSymClasses groups the running members into symmetry classes in
// first-seen (ascending VM id) order and returns an error if any member's
// class bit cannot be resolved. counts/classOf/classes are (re)built in
// sc.sym.
func (e *Estimator) buildSymClasses(sc *scratch, plan *vhc.Plan, snap hypervisor.Snapshot, members []int) error {
	s := &sc.sym
	if s.group == nil {
		s.group = make(map[symKey]int)
	}
	clear(s.group)
	s.classes = s.classes[:0]
	s.counts = s.counts[:0]
	n := e.host.Set().Len()
	if cap(s.classOf) < n {
		s.classOf = make([]int, n)
	}
	s.classOf = s.classOf[:n]
	for i := range s.classOf {
		s.classOf[i] = -1
	}
	for _, i := range members {
		bit, err := plan.ClassBit(i)
		if err != nil {
			return err
		}
		key := symKey{bit: bit, state: snap.States[i]}
		j, ok := s.group[key]
		if !ok {
			j = len(s.classes)
			s.group[key] = j
			s.classes = append(s.classes, vhc.SymClass{Bit: bit, State: snap.States[i], First: i})
			s.counts = append(s.counts, 0)
		}
		s.classes[j].Count++
		s.counts[j]++
		s.classOf[i] = j
	}
	return nil
}

// symWorthwhile decides whether the collapsed enumeration beats the
// alternative for nr running players in k classes, and returns the vector
// count V when it does. The tiers:
//
//   - nr <= cfg.ExactMaxPlayers: the mask path costs 2^nr, so collapse
//     only when it at least halves the table (V <= 2^(nr-1)); below that
//     the mask path's incremental machinery is the better engine.
//   - nr <= vm.MaxPlayers: the alternative is Monte-Carlo; collapse when
//     V stays within the configured exact budget (2^ExactMaxPlayers,
//     capped at the per-tick vector budget) — an exact answer at the cost
//     the operator already signed off on for exact ticks.
//   - nr > vm.MaxPlayers: no mask fallback exists; collapse whenever V
//     fits the per-tick budget.
func symWorthwhile(nr, k int, counts []int, cfg Config) (int, bool) {
	if k >= nr {
		return 0, false // all players distinct: nothing collapses
	}
	var budget int
	switch {
	case nr <= cfg.ExactMaxPlayers:
		budget = 1 << uint(nr-1)
	case nr <= vm.MaxPlayers:
		b := cfg.ExactMaxPlayers
		if b > 22 {
			b = 22
		}
		budget = 1 << uint(b)
	default:
		budget = symVectorBudget
	}
	if budget > symVectorBudget {
		budget = symVectorBudget
	}
	v := 1
	for _, c := range counts {
		v *= c + 1
		if v > budget {
			return 0, false
		}
	}
	return v, true
}

// symAligned reports whether the previous tick's classes line up with the
// current ones position by position (same bit and size), which makes the
// previous collapsed table reusable modulo dirty-state re-evaluation. A
// same-class member swap (one VM of a class stops, another with the same
// state starts) keeps alignment: the collapsed game is identical.
func symAligned(prev, cur []vhc.SymClass) bool {
	if len(prev) != len(cur) {
		return false
	}
	for j := range cur {
		if prev[j].Bit != cur[j].Bit || prev[j].Count != cur[j].Count {
			return false
		}
	}
	return true
}

// symTick attempts the symmetry-collapsed exact solve for the tick. It
// returns handled=false (and no error) when the tick does not collapse
// profitably — the caller then serves the mask path. On success the
// allocation's PerVM, Method and SymmetryClasses are filled in.
func (e *Estimator) symTick(sc *scratch, plan *vhc.Plan, snap hypervisor.Snapshot, members []int, dyn float64, sp *obs.Span, alloc *Allocation) (bool, error) {
	s := &sc.sym
	if err := e.buildSymClasses(sc, plan, snap, members); err != nil {
		return false, err
	}
	k := len(s.classes)
	v, ok := symWorthwhile(len(members), k, s.counts, e.cfg)
	if !ok {
		return false, nil
	}
	if _, err := s.sc.Prepare(s.counts); err != nil {
		return false, err
	}
	if len(s.table) != v {
		if cap(s.table) < v {
			s.table = make([]float64, v)
		}
		s.table = s.table[:v]
		s.prevValid = false
	}
	if cap(s.phi) < k {
		s.phi = make([]float64, k)
	}
	s.phi = s.phi[:k]

	if err := s.eval.Reset(plan, s.classes); err != nil {
		return false, err
	}
	// Tabulation is serial: the closure's error capture needs no lock.
	var worthErr error
	counts := s.counts
	worth := func(t []int) float64 {
		grand := true
		for j := range t {
			if t[j] != counts[j] {
				grand = false
				break
			}
		}
		if grand {
			return dyn
		}
		p, err := s.eval.EvalCounts(t)
		if err != nil && worthErr == nil {
			worthErr = err
		}
		return p
	}

	evaluated, reused, dirtyClasses, full := v, 0, k, true
	classes := s.classes
	if s.prevValid && s.prevPlan == plan && symAligned(s.prev, classes) {
		// Incremental tick: only vectors touching a class whose shared
		// state changed need re-evaluation; the rest describe coalitions
		// of unchanged composition and keep their worths verbatim.
		if cap(s.dirty) < k {
			s.dirty = make([]bool, k)
		}
		s.dirty = s.dirty[:k]
		dirtyClasses = 0
		for j := range s.dirty {
			s.dirty[j] = s.prev[j].State != classes[j].State
			if s.dirty[j] {
				dirtyClasses++
			}
		}
		full = false
		var err error
		evaluated, err = shapley.SymRetabulateInto(s.table, &s.sc, worth, s.dirty)
		if err != nil {
			s.prevValid = false
			return false, err
		}
		reused = v - evaluated
	} else {
		s.prevValid = false
		if err := shapley.SymTabulateInto(s.table, &s.sc, worth); err != nil {
			return false, err
		}
	}
	// The grand vector carries this tick's measured dynamic power
	// regardless of dirtiness (dyn moves every tick even when states
	// don't).
	s.table[v-1] = dyn
	sp.Mark("worth")

	if err := shapley.SymExactFromTableInto(s.phi, &s.sc, s.table); err != nil {
		s.prevValid = false
		return false, err
	}
	if worthErr != nil {
		s.prevValid = false
		return false, fmt.Errorf("core: worth evaluation: %w", worthErr)
	}

	n := e.host.Set().Len()
	alloc.PerVM = make([]float64, n)
	for _, i := range members {
		alloc.PerVM[i] = s.phi[s.classOf[i]]
	}
	alloc.Method = "exact"
	alloc.SymmetryClasses = k
	alloc.Prov.Tier = TierSymExact
	alloc.Prov.TierReason = reasonSymCollapse
	alloc.Prov.DirtyVMs = dirtyClasses
	alloc.Prov.Evaluated = evaluated
	alloc.Prov.Reused = reused
	alloc.Prov.FullTabulation = full

	s.prev = append(s.prev[:0], classes...)
	s.prevPlan = plan
	s.prevValid = true
	return true, nil
}
