package vhc

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"vmpower/internal/vm"
)

// This file implements the compiled worth plan: an immutable, lock-free
// snapshot of everything the online estimation hot path needs to evaluate
// v(S, C) — per-VM class bits, the fitted mapping vectors and the
// exact-match v(S,C) table with its means precomputed — so a tick's 2^n
// worth evaluations become allocation-free array gathers and dot products
// on stack scratch, instead of the legacy path's per-coalition combo map,
// feature slice and RWMutex-guarded table lookup.
//
// The online contract already guarantees the model is fixed between
// retrainings; a Plan makes that explicit. Compile one per epoch
// (Approximator.Epoch changes on every mutation) and share it freely: a
// Plan is never mutated after NewPlan returns, so Eval is safe for
// concurrent use from any number of goroutines with zero synchronisation.

// ErrPlan marks plan compilation failures.
var ErrPlan = errors.New("vhc: cannot compile worth plan")

// Plan is a compiled, immutable evaluation plan for v(S, C) over a fixed
// VM set, class map and trained model snapshot.
type Plan struct {
	n          int     // VMs in the set
	resolution float64 // table lattice resolution (<= 0: no table)
	epoch      uint64  // Approximator.Epoch at compile time

	// classBit[i] is 1 << class(type(vm i)): ORing the members' bits
	// yields the coalition's ComboMask, and popcounting the bits below a
	// member's own bit yields its class's rank — i.e. its feature-slot
	// base — inside the combo's feature vector.
	classBit []ComboMask

	// weights[combo] is the fitted mapping vector (nil if untrained);
	// table[combo] is the combo's exact-match table (nil if it has no
	// entries). Both indexed by ComboMask.
	weights [][]float64
	table   []*comboTable
}

// comboTable is one combo's exact-match v(S,C) table: lattice keys to
// precomputed entry means, plus the bounding box of those keys. lo[i]
// and hi[i] are the least and greatest lattice coordinate i of any
// stored key, so a feature vector with a coordinate outside [lo[i],
// hi[i]] has no entry and needs no hashing to find that out.
type comboTable struct {
	means  map[tableKey]float64
	lo, hi tableKey
}

// newComboTable returns the table of means over flen-feature keys with
// the keys' box.
func newComboTable(means map[tableKey]float64, flen int) *comboTable {
	t := &comboTable{means: means}
	for i := 0; i < flen; i++ {
		t.lo[i], t.hi[i] = math.MaxInt64, math.MinInt64
	}
	for k := range means {
		for i := 0; i < flen; i++ {
			t.lo[i] = min(t.lo[i], k[i])
			t.hi[i] = max(t.hi[i], k[i])
		}
	}
	return t
}

// NewPlan compiles a plan from the set's catalog layout, the class map
// and the approximator's current trained state. The snapshot is taken
// under the approximator's read lock; later mutations (AddSample, Train,
// Import) do not affect the plan but advance the epoch, which holders
// should watch to recompile (see Epoch).
func NewPlan(set *vm.Set, classes *ClassMap, a *Approximator) (*Plan, error) {
	if set == nil || classes == nil || a == nil {
		return nil, fmt.Errorf("%w: nil set, classes or approximator", ErrPlan)
	}
	if err := classes.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrPlan, err)
	}
	if classes.Classes != a.numTypes {
		return nil, fmt.Errorf("%w: class map has %d classes, approximator %d",
			ErrPlan, classes.Classes, a.numTypes)
	}
	n := set.Len()
	p := &Plan{
		n:        n,
		classBit: make([]ComboMask, n),
	}
	for i := 0; i < n; i++ {
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPlan, err)
		}
		if int(v.Type) >= len(classes.ByType) {
			return nil, fmt.Errorf("%w: type %d not covered by class map", ErrPlan, v.Type)
		}
		p.classBit[i] = 1 << uint(classes.ByType[v.Type])
	}

	a.mu.RLock()
	defer a.mu.RUnlock()
	p.resolution = a.resolution
	p.epoch = a.epoch
	combos := 1 << uint(a.numTypes)
	p.weights = make([][]float64, combos)
	p.table = make([]*comboTable, combos)
	for combo, w := range a.weights {
		p.weights[combo] = append([]float64(nil), w...)
	}
	for combo, entries := range a.table {
		if len(entries) == 0 {
			continue
		}
		means := make(map[tableKey]float64, len(entries))
		for k, e := range entries {
			means[k] = e.mean()
		}
		p.table[combo] = newComboTable(means, a.featureLen(combo))
	}
	return p, nil
}

// NumVMs returns the VM-set size the plan was compiled for.
func (p *Plan) NumVMs() int { return p.n }

// Epoch returns the Approximator.Epoch the plan snapshot was taken at.
func (p *Plan) Epoch() uint64 { return p.epoch }

// Eval returns v(S, C): the exact-match table mean if the coalition's
// quantized aggregated state was measured offline, otherwise the linear
// approximation Σ_j w_j·v_j clamped at zero. The empty coalition is 0.
//
// It is the allocation-free equivalent of ClassedFeaturesFor followed by
// Approximator.Estimate, and matches them bit for bit: member states are
// accumulated into each class slot in ascending VM-ID order (the same
// addition order as the legacy aggregation) and the dot product runs the
// same ascending loop as linalg.Vector.Dot.
//
// states is indexed by vm.ID and must cover the plan's VM set; entries of
// non-members are ignored. The caller is responsible for masking out
// stopped VMs (dummies) before calling, exactly as with the legacy path.
func (p *Plan) Eval(s vm.Coalition, states []vm.State) (float64, error) {
	var feat [maxFeatureLen]float64
	combo, err := p.features(s, states, &feat)
	if err != nil || combo == 0 {
		return 0, err
	}
	return p.worth(combo, &feat)
}

// features fills feat with s's aggregated feature vector, adding member
// states in ascending VM-ID order, and returns its combo (0 for the
// empty coalition).
func (p *Plan) features(s vm.Coalition, states []vm.State, feat *[maxFeatureLen]float64) (ComboMask, error) {
	const k = int(vm.NumComponents)
	if len(states) < p.n {
		return 0, fmt.Errorf("vhc: %d states for %d planned VMs", len(states), p.n)
	}
	var combo ComboMask
	for m := uint32(s); m != 0; {
		b := bits.TrailingZeros32(m)
		m &^= 1 << uint(b)
		if b >= len(p.classBit) {
			return 0, fmt.Errorf("vhc: plan compiled for %d VMs, coalition has member %d", p.n, b)
		}
		combo |= p.classBit[b]
	}
	for m := uint32(s); m != 0; {
		b := bits.TrailingZeros32(m)
		m &^= 1 << uint(b)
		cb := p.classBit[b]
		base := bits.OnesCount16(uint16(combo&(cb-1))) * k
		st := &states[b]
		for c := 0; c < k; c++ {
			feat[base+c] += st[c]
		}
	}
	return combo, nil
}

// worth maps a non-empty combo's aggregated feature vector to v(S, C):
// the exact-match table mean when the quantized features were measured
// offline, otherwise the clamped linear approximation.
func (p *Plan) worth(combo ComboMask, feat *[maxFeatureLen]float64) (float64, error) {
	if t := p.table[combo]; t != nil && p.resolution > 0 {
		if v, ok := t.lookup(feat, combo.Size()*int(vm.NumComponents), p.resolution); ok {
			return v, nil
		}
	}
	w := p.weights[combo]
	if w == nil {
		return 0, fmt.Errorf("%w: %s", ErrUntrained, combo)
	}
	// Each product is rounded before it is added (the conversion forbids
	// fusing it into the addition), as in linalg.Vector.Dot and in the
	// worth rows SymEval sums.
	var dot float64
	for i, x := range w {
		dot += float64(x * feat[i])
	}
	if dot < 0 {
		dot = 0
	}
	return dot, nil
}

// lookup returns the table mean stored under feat's lattice key, if any.
// It quantizes one coordinate at a time and gives up at the first one
// outside the box, before hashing: every stored key lies inside the box,
// so such a vector has no entry. Online states almost never hit the
// table, and most lookups leave the box at the first coordinate, which is
// therefore tested before the key is zeroed.
func (t *comboTable) lookup(feat *[maxFeatureLen]float64, flen int, res float64) (float64, bool) {
	c := latticeCoord(feat[0], res)
	if c < t.lo[0] || c > t.hi[0] {
		return 0, false
	}
	var key tableKey
	key[0] = c
	for i := 1; i < flen; i++ {
		c = latticeCoord(feat[i], res)
		if c < t.lo[i] || c > t.hi[i] {
			return 0, false
		}
		key[i] = c
	}
	v, ok := t.means[key]
	return v, ok
}
