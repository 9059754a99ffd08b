package vhc

import (
	"fmt"
	"math/bits"

	"vmpower/internal/vm"
)

// This file extends the compiled worth plan to symmetry-collapsed
// evaluation: when the host's VMs group into classes that share a VHC
// class bit AND a bit-equal quantized state, v(S, C) depends only on how
// many members of each class S contains, and the plan can evaluate a
// type-count vector directly without materialising any coalition mask.
// This is what lets core estimate exactly past the 2^n mask wall.

// SymClass describes one symmetry class of the current tick: a maximal
// group of running VMs with the same plan class bit and bit-equal state.
type SymClass struct {
	// Bit is the plan class bit shared by every member (1 << VHC class).
	Bit ComboMask
	// State is the members' shared quantized state (bit-equal across the
	// class by construction).
	State vm.State
	// Count is the number of members.
	Count int
	// First is the lowest VM ID in the class, fixing a stable class order.
	First int
}

// ClassBit returns VM i's compiled class bit (1 << class(type(vm i))).
func (p *Plan) ClassBit(i int) (ComboMask, error) {
	if i < 0 || i >= p.n {
		return 0, fmt.Errorf("vhc: plan compiled for %d VMs, no VM %d", p.n, i)
	}
	return p.classBit[i], nil
}

// symSlotBudget caps the entries of one feature slot's sum table (24
// bytes each): 2^16 entries keeps every table of a tick under 19 MiB
// across all MaxTypes slots, and no slot of a game within the mask-range
// vector budgets (at most 2^16 vectors) ever spills.
const symSlotBudget = 1 << 16

// SymEval evaluates v(t, C) for one tick's symmetry classes in time
// independent of the class sizes. The zero value is ready; Reset before
// use. It is owned by one goroutine.
//
// A coalition's feature slot for VHC class s is the sum of its members'
// states, and the result must be bit-equal to adding them one at a time:
// class by class in class order, t[j] copies of class j's state each (a
// multiplicative t·x shortcut could differ in the last ulp and flip an
// exact-match table hit near a lattice boundary). That sum is a function
// of the slot's own counts only, so Reset tabulates it per slot over the
// mixed-radix sub-lattice of the slot's classes, and EvalCounts reads one
// entry per present slot instead of accumulating up to n states. A slot
// entry is built from the entry with one fewer member of its highest
// present class — the last addition of the member-by-member order — so
// the table holds exactly the sums that order produces.
//
// A slot whose sub-lattice would exceed symSlotBudget tabulates its
// leading classes only; the rest ("tail" classes) are still added member
// by member after the table read, in the same order, so the budget
// bounds memory without changing any sum.
type SymEval struct {
	plan    *Plan
	classes []SymClass // the classes the tables describe
	slot    []int      // classes[j]'s VHC class, i.e. its feature slot
	stride  []int      // classes[j]'s digit stride in its slot table; 0 for tail classes
	tail    []int      // tail classes, ascending
	tables  [MaxTypes][]vm.State
	lead    []int // build scratch: the slot's tabulated classes
	digits  []int // build scratch: odometer digits over lead
}

// Reset binds the evaluator to plan and this tick's classes. A slot's
// table is rebuilt only when one of its tabulated classes changed since
// the previous Reset, so a tick whose states repeat costs O(k).
func (e *SymEval) Reset(p *Plan, classes []SymClass) error {
	for j, c := range classes {
		if c.Bit == 0 || c.Bit&(c.Bit-1) != 0 || bits.TrailingZeros16(uint16(c.Bit)) >= MaxTypes || c.Count < 0 {
			e.classes = e.classes[:0]
			return fmt.Errorf("vhc: class %d has bit %#x and %d members", j, uint16(c.Bit), c.Count)
		}
	}
	e.plan = p
	same := len(e.classes) == len(classes)
	for j := 0; same && j < len(classes); j++ {
		same = e.classes[j].Bit == classes[j].Bit && e.classes[j].Count == classes[j].Count
	}
	if !same {
		e.layout(classes)
		for s := range e.tables {
			e.build(s)
		}
		return nil
	}
	var stale [MaxTypes]bool
	for j := range classes {
		if e.classes[j].State != classes[j].State {
			e.classes[j].State = classes[j].State
			// Tail classes are read from e.classes, not from a table.
			stale[e.slot[j]] = stale[e.slot[j]] || e.stride[j] > 0
		}
	}
	for s, rebuild := range stale {
		if rebuild {
			e.build(s)
		}
	}
	return nil
}

// layout assigns each class its slot and stride and records the tail.
func (e *SymEval) layout(classes []SymClass) {
	k := len(classes)
	e.classes = append(e.classes[:0], classes...)
	e.slot = resize(e.slot, k)
	e.stride = resize(e.stride, k)
	e.tail = e.tail[:0]
	var size [MaxTypes]int // sub-lattice size so far per slot; 0 once a slot spills into its tail
	for s := range size {
		size[s] = 1
	}
	for j, c := range classes {
		s := bits.TrailingZeros16(uint16(c.Bit))
		e.slot[j] = s
		if size[s] > 0 && size[s]*(c.Count+1) <= symSlotBudget {
			e.stride[j] = size[s]
			size[s] *= c.Count + 1
			continue
		}
		size[s] = 0
		e.stride[j] = 0
		e.tail = append(e.tail, j)
	}
}

// build refills slot s's table. Entry u is the slot's feature sum at the
// sub-vector u decodes to; entry 0 is the empty sum.
func (e *SymEval) build(s int) {
	e.lead = e.lead[:0]
	n := 1
	for j := range e.classes {
		if e.slot[j] == s && e.stride[j] > 0 {
			e.lead = append(e.lead, j)
			n *= e.classes[j].Count + 1
		}
	}
	lead := e.lead
	if cap(e.tables[s]) < n {
		e.tables[s] = make([]vm.State, n)
	}
	tab := e.tables[s][:n]
	e.tables[s] = tab
	tab[0] = vm.State{}
	e.digits = resize(e.digits, len(lead))
	clear(e.digits)
	hi := -1 // highest digit position with a non-zero count; never decreases
	for u := 1; u < n; u++ {
		for q, j := range lead {
			if e.digits[q] < e.classes[j].Count {
				e.digits[q]++
				hi = max(hi, q)
				break
			}
			e.digits[q] = 0
		}
		j := lead[hi]
		prev, st := &tab[u-e.stride[j]], &e.classes[j].State
		for c := range tab[u] {
			tab[u][c] = prev[c] + st[c]
		}
	}
}

// EvalCounts returns v(t, C): the worth of a coalition containing t[j]
// members of symmetry class j, under the plan and classes of the last
// Reset. It is equivalent to Plan.Eval on any mask realising those
// counts whose members ascend class by class. The all-zero vector is the
// empty coalition, worth 0.
func (e *SymEval) EvalCounts(t []int) (float64, error) {
	var feat [maxFeatureLen]float64
	combo, err := e.features(t, &feat)
	if err != nil || combo == 0 {
		return 0, err
	}
	return e.plan.worth(combo, &feat)
}

// features fills feat with the aggregated feature vector of count vector
// t and returns its combo (0 for the empty coalition).
func (e *SymEval) features(t []int, feat *[maxFeatureLen]float64) (ComboMask, error) {
	const k = int(vm.NumComponents)
	if len(t) != len(e.classes) {
		return 0, fmt.Errorf("vhc: %d counts for %d classes", len(t), len(e.classes))
	}
	var combo ComboMask
	var sub [MaxTypes]int
	for j, tj := range t {
		switch {
		case tj < 0 || tj > e.classes[j].Count:
			return 0, fmt.Errorf("vhc: count t[%d]=%d outside [0,%d]", j, tj, e.classes[j].Count)
		case tj > 0:
			combo |= e.classes[j].Bit
			sub[e.slot[j]] += tj * e.stride[j]
		}
	}
	for m := uint16(combo); m != 0; {
		s := bits.TrailingZeros16(m)
		m &^= 1 << uint(s)
		base := bits.OnesCount16(uint16(combo)&(1<<uint(s)-1)) * k
		copy(feat[base:base+k], e.tables[s][sub[s]][:])
	}
	for _, j := range e.tail {
		if t[j] == 0 {
			continue
		}
		base := bits.OnesCount16(uint16(combo&(e.classes[j].Bit-1))) * k
		st := &e.classes[j].State
		for x := 0; x < t[j]; x++ {
			for c := 0; c < k; c++ {
				feat[base+c] += st[c]
			}
		}
	}
	return combo, nil
}

// resize returns s with length n, reallocating only when it must.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ClassedFeaturesRunning is ClassedFeaturesFor over a running-flag vector
// instead of a coalition mask — the wide-set form used when the VM set
// exceeds the bitmask cap. Flags are scanned in ascending VM-ID order, the
// same addition order as the mask form, so the two agree bit for bit on
// sets both can represent.
func ClassedFeaturesRunning(set *vm.Set, running []bool, states []vm.State, classes *ClassMap) (ComboMask, []float64, error) {
	if err := classes.Validate(); err != nil {
		return 0, nil, err
	}
	if len(states) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d states for %d VMs", len(states), set.Len())
	}
	if len(running) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d running flags for %d VMs", len(running), set.Len())
	}
	agg := make(map[vm.TypeID]vm.State, classes.Classes)
	var combo ComboMask
	for i, r := range running {
		if !r {
			continue
		}
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return 0, nil, err
		}
		if int(v.Type) >= len(classes.ByType) {
			return 0, nil, fmt.Errorf("vhc: type %d not covered by class map", v.Type)
		}
		class := vm.TypeID(classes.ByType[v.Type])
		combo |= 1 << uint(class)
		agg[class] = agg[class].Add(states[i])
	}
	return combo, Features(combo, agg), nil
}
