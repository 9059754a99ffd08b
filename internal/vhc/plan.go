package vhc

import (
	"errors"
	"fmt"
	"math/bits"

	"vmpower/internal/vm"
)

// This file implements the worth plan: everything the online estimation
// hot path needs to evaluate v(S, C) for one VM set — the per-VM class
// bits — plus the approximator's published model, which it reads in
// place. A tick's worth evaluations are then allocation-free array
// gathers, table probes and dot products on stack scratch.
//
// Train and Import publish a new model instead of changing the old one,
// so a plan is never stale: it serves the model it was built on whole.
// Building one copies nothing of the model, so a holder simply builds
// another when the approximator publishes a new model or the set grows.
// A Plan is never mutated after NewPlan returns, so Eval is safe for
// concurrent use from any number of goroutines with zero
// synchronisation.

// ErrPlan marks plan construction failures.
var ErrPlan = errors.New("vhc: cannot build worth plan")

// Plan is an immutable evaluation plan for v(S, C) over a fixed VM set
// and class map, reading one published model.
type Plan struct {
	resolution float64 // table lattice resolution (<= 0: no table)
	model      *model  // the model published when the plan was built

	// classBit[i] is 1 << class(type(vm i)): ORing the members' bits
	// yields the coalition's ComboMask, and popcounting the bits below a
	// member's own bit yields its class's rank — i.e. its feature-slot
	// base — inside the combo's feature vector.
	classBit []ComboMask
}

// NewPlan builds a plan from the set's catalog layout, the class map and
// the approximator's published model. The plan keeps reading that model
// after Train or Import publishes another; Reads tells a holder when to
// rebuild.
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
		resolution: a.resolution,
		model:      a.model.Load(),
		classBit:   make([]ComboMask, n),
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
	return p, nil
}

// Reads reports whether the plan reads a's published model, that is
// whether a has published no model since the plan was built.
func (p *Plan) Reads(a *Approximator) bool { return p.model == a.model.Load() }

// NumVMs returns the VM-set size the plan was built for.
func (p *Plan) NumVMs() int { return len(p.classBit) }

// Eval returns v(S, C): the exact-match table mean if the coalition's
// quantized aggregated state was measured offline, otherwise the linear
// approximation Σ_j w_j·v_j clamped at zero. The empty coalition is 0.
//
// It is the allocation-free equivalent of ClassedFeaturesFor followed by
// Approximator.Estimate, and matches them bit for bit: member states are
// accumulated into each class slot in ascending VM-ID order (the same
// addition order as ClassedFeaturesFor) and the dot product runs the
// same ascending loop as linalg.Vector.Dot.
//
// states is indexed by vm.ID and must cover the plan's VM set; entries of
// non-members are ignored. The caller is responsible for masking out
// stopped VMs (dummies) before calling.
func (p *Plan) Eval(s vm.Coalition, states []vm.State) (float64, error) {
	var feat [MaxFeatureLen]float64
	combo, err := p.features(s, states, &feat)
	if err != nil || combo == 0 {
		return 0, err
	}
	return p.Worth(combo, &feat)
}

// features fills feat with s's aggregated feature vector, adding member
// states in ascending VM-ID order, and returns its combo (0 for the
// empty coalition).
func (p *Plan) features(s vm.Coalition, states []vm.State, feat *[MaxFeatureLen]float64) (ComboMask, error) {
	const k = int(vm.NumComponents)
	if len(states) < len(p.classBit) {
		return 0, fmt.Errorf("vhc: %d states for %d planned VMs", len(states), len(p.classBit))
	}
	var combo ComboMask
	for m := uint32(s); m != 0; {
		b := bits.TrailingZeros32(m)
		m &^= 1 << uint(b)
		if b >= len(p.classBit) {
			return 0, fmt.Errorf("vhc: plan built for %d VMs, coalition has member %d", len(p.classBit), b)
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

// ClassBit returns VM i's class bit (1 << class(type(vm i))).
func (p *Plan) ClassBit(i int) (ComboMask, error) {
	if i < 0 || i >= len(p.classBit) {
		return 0, fmt.Errorf("vhc: plan built for %d VMs, no VM %d", len(p.classBit), i)
	}
	return p.classBit[i], nil
}

// Weights returns combo's fitted mapping vector, laid out as
// ClassedFeaturesFor's features, or nil when the combo is untrained. The
// slice is the published model's own: callers must not modify it.
func (p *Plan) Weights(combo ComboMask) []float64 {
	return p.model.comboWeights(combo)
}

// TableBox reports whether combo has exact-match table entries and, when
// it does, fills lo and hi with bounds on every stored key's features: a
// feature vector with a coordinate i outside [lo[i], hi[i]] has no entry.
// The bounds are the key box widened by one lattice step on each side,
// so that rounding in f/resolution never excludes a feature that
// quantizes into the box.
func (p *Plan) TableBox(combo ComboMask, lo, hi *[MaxFeatureLen]float64) bool {
	t := p.model.table(combo)
	if t == nil {
		return false
	}
	for i := 0; i < combo.Size()*int(vm.NumComponents); i++ {
		lo[i] = (float64(t.lo[i]) - 1) * p.resolution
		hi[i] = (float64(t.hi[i]) + 1) * p.resolution
	}
	return true
}

// TableMean returns the exact-match table mean stored for combo under
// feat's lattice key, if any.
func (p *Plan) TableMean(combo ComboMask, feat *[MaxFeatureLen]float64) (float64, bool) {
	t := p.model.table(combo)
	if t == nil {
		return 0, false
	}
	return t.lookup(feat, combo.Size()*int(vm.NumComponents), p.resolution)
}

// Worth maps a non-empty combo's aggregated feature vector to v(S, C):
// the exact-match table mean when the quantized features were measured
// offline, otherwise the clamped linear approximation.
func (p *Plan) Worth(combo ComboMask, feat *[MaxFeatureLen]float64) (float64, error) {
	if v, ok := p.TableMean(combo, feat); ok {
		return v, nil
	}
	w := p.Weights(combo)
	if w == nil {
		return 0, fmt.Errorf("%w: %s", ErrUntrained, combo)
	}
	// Each product is rounded before it is added (the conversion forbids
	// fusing it into the addition), as in linalg.Vector.Dot.
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
func (t *comboTable) lookup(feat *[MaxFeatureLen]float64, flen int, res float64) (float64, bool) {
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
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	return e.mean(), true
}
