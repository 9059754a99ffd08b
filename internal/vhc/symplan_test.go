package vhc

import (
	"errors"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"vmpower/internal/vm"
)

// symRigClasses groups the test set (2x type0, 1x type1, 1x type2) into
// symmetry classes for states where VMs 0 and 1 share a bit-equal state.
func symRigClasses(t *testing.T, plan *Plan, states []vm.State) []SymClass {
	t.Helper()
	b0, err := plan.ClassBit(0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := plan.ClassBit(2)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := plan.ClassBit(3)
	if err != nil {
		t.Fatal(err)
	}
	return []SymClass{
		{Bit: b0, State: states[0], Count: 2, First: 0},
		{Bit: b2, State: states[2], Count: 1, First: 2},
		{Bit: b3, State: states[3], Count: 1, First: 3},
	}
}

// maskForCounts returns one coalition mask realising the count vector
// over the test set's class layout ({0,1} | {2} | {3}).
func maskForCounts(tv []int) vm.Coalition {
	var mask vm.Coalition
	switch tv[0] {
	case 1:
		mask = mask.With(0)
	case 2:
		mask = mask.With(0).With(1)
	}
	if tv[1] > 0 {
		mask = mask.With(2)
	}
	if tv[2] > 0 {
		mask = mask.With(3)
	}
	return mask
}

// TestEvalCountsMatchesEval pins the collapsed evaluator to the mask
// evaluator bit for bit, on every count vector and every mask realising
// it, across table-hit and regression regimes. VMs 0 and 1 share a state
// so they form a genuine 2-member symmetry class. With a table, every
// other trial's plan also stores the keys of two of the trial's
// coalitions (see withKeys), so reads hit.
func TestEvalCountsMatchesEval(t *testing.T) {
	for _, res := range []float64{0, 0.01, 0.1} {
		set, classes, a := trainedRig(t, res, 23)
		base, err := NewPlan(set, classes, a)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		var ev SymEval
		var cov readCoverage
		for trial := 0; trial < 500; trial++ {
			states := make([]vm.State, set.Len())
			for i := range states {
				for c := 0; c < int(vm.NumComponents); c++ {
					states[i][c] = math.Round(rng.Float64()*100) / 100
				}
			}
			states[1] = states[0] // collapse VMs 0 and 1 into one class
			plan := base
			if res > 0 && trial%2 == 1 {
				samples := make([]keySample, 2)
				for i := range samples {
					if samples[i].combo, err = base.features(vm.Coalition(1+rng.Intn(15)), states, &samples[i].feat); err != nil {
						t.Fatal(err)
					}
				}
				plan = withKeys(rng, base, res, samples)
			}
			if err := ev.Reset(plan, symRigClasses(t, plan, states)); err != nil {
				t.Fatal(err)
			}

			tv := make([]int, 3)
			for t0 := 0; t0 <= 2; t0++ {
				for t1 := 0; t1 <= 1; t1++ {
					for t2 := 0; t2 <= 1; t2++ {
						tv[0], tv[1], tv[2] = t0, t1, t2
						got, gotErr := ev.EvalCounts(tv)
						mask := maskForCounts(tv)
						want, wantErr := plan.Eval(mask, states)
						if (gotErr != nil) != (wantErr != nil) {
							t.Fatalf("res=%g t=%v: counts err %v, mask err %v", res, tv, gotErr, wantErr)
						}
						if gotErr == nil && got != want {
							t.Fatalf("res=%g t=%v mask=%s: counts %v != mask %v (diff %g)",
								res, tv, mask, got, want, got-want)
						}
						var feat [maxFeatureLen]float64
						combo, err := plan.features(mask, states, &feat)
						if err != nil {
							t.Fatal(err)
						}
						cov.note(&ev, combo, &feat)
						// The symmetric-pair vector must also match the OTHER
						// mask realising it.
						if t0 == 1 {
							alt := mask.Without(0).With(1)
							wantAlt, err := plan.Eval(alt, states)
							if err == nil && gotErr == nil && got != wantAlt {
								t.Fatalf("res=%g t=%v alt mask=%s: counts %v != mask %v",
									res, tv, alt, got, wantAlt)
							}
						}
					}
				}
			}
		}
		if res > 0 && cov.hits == 0 {
			t.Fatalf("res=%g: no read hit the table", res)
		}
	}
}

func TestEvalCountsErrors(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 29)
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]vm.State, set.Len())
	var ev SymEval
	if err := ev.Reset(plan, symRigClasses(t, plan, states)); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalCounts([]int{1, 1}); err == nil {
		t.Fatal("count/class length mismatch must error")
	}
	if _, err := ev.EvalCounts([]int{3, 0, 0}); err == nil {
		t.Fatal("count above class size must error")
	}
	if _, err := ev.EvalCounts([]int{-1, 0, 0}); err == nil {
		t.Fatal("negative count must error")
	}
	if v, err := ev.EvalCounts([]int{0, 0, 0}); err != nil || v != 0 {
		t.Fatalf("empty vector = (%v, %v), want (0, nil)", v, err)
	}
	if _, err := plan.ClassBit(-1); err == nil {
		t.Fatal("negative VM must error")
	}
	if _, err := plan.ClassBit(set.Len()); err == nil {
		t.Fatal("out-of-range VM must error")
	}
	for _, bad := range []SymClass{
		{Bit: 0, Count: 1},
		{Bit: 0b11, Count: 1},
		{Bit: 1 << MaxTypes, Count: 1},
		{Bit: 1, Count: -1},
	} {
		if err := ev.Reset(plan, []SymClass{bad}); err == nil {
			t.Fatalf("Reset accepted class %+v", bad)
		}
	}
}

// TestEvalCountsUntrained pins error parity with Eval on an untrained
// combo.
func TestEvalCountsUntrained(t *testing.T) {
	set := testSet(t)
	classes, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(classes.Classes, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	states := []vm.State{{vm.CPU: 0.5}, {vm.CPU: 0.5}, {}, {}}
	for i := 0; i < 4; i++ {
		states[0][vm.CPU] = 0.1 * float64(i+1)
		states[1] = states[0]
		_, feats, err := ClassedFeaturesFor(set, vm.CoalitionOf(0, 1), states, classes)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AddSample(0b001, feats, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	var ev SymEval
	if err := ev.Reset(plan, symRigClasses(t, plan, states)); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalCounts([]int{2, 0, 0}); err != nil {
		t.Fatalf("trained combo: %v", err)
	}
	if _, err := ev.EvalCounts([]int{0, 1, 0}); !errors.Is(err, ErrUntrained) {
		t.Fatalf("untrained combo err = %v, want ErrUntrained", err)
	}
}

// TestEvalCountsZeroAlloc extends the plan's zero-allocation claim to the
// collapsed evaluator, and to re-binding it to a tick whose states moved
// without changing the class layout.
func TestEvalCountsZeroAlloc(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 31)
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]vm.State, set.Len())
	for i := range states {
		states[i] = vm.State{vm.CPU: 0.37, vm.Memory: 0.12, vm.DiskIO: 0.05}
	}
	sym := symRigClasses(t, plan, states)
	var ev SymEval
	if err := ev.Reset(plan, sym); err != nil {
		t.Fatal(err)
	}
	tv := []int{2, 1, 1}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.EvalCounts(tv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SymEval.EvalCounts allocates %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		sym[0].State[vm.CPU] = 1 - sym[0].State[vm.CPU]
		if err := ev.Reset(plan, sym); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SymEval.Reset allocates %v per run on a same-layout tick, want 0", allocs)
	}
}

// keySample is a coalition's feature vector for a test table to store.
type keySample struct {
	combo ComboMask
	feat  [maxFeatureLen]float64
}

// withKeys returns a copy of p at resolution res whose exact-match tables
// hold p's own entries plus the lattice key of every sample, each with a
// random mean, so that reads of the sampled coalitions hit. A combo's key
// box is spanned by its stored keys, so the sampled hits sit on its
// edges; a combo sampled once has a box of one point.
func withKeys(rng *rand.Rand, p *Plan, res float64, samples []keySample) *Plan {
	const k = int(vm.NumComponents)
	means := make(map[ComboMask]map[tableKey]float64)
	for combo, t := range p.table {
		if t != nil {
			means[ComboMask(combo)] = maps.Clone(t.means)
		}
	}
	for _, smp := range samples {
		var key tableKey
		for i := 0; i < smp.combo.Size()*k; i++ {
			key[i] = latticeCoord(smp.feat[i], res)
		}
		if means[smp.combo] == nil {
			means[smp.combo] = make(map[tableKey]float64)
		}
		means[smp.combo][key] = 10 * rng.Float64()
	}
	q := *p
	q.resolution = res
	q.table = make([]*comboTable, len(p.table))
	for combo, m := range means {
		q.table[combo] = newComboTable(m, combo.Size()*k)
	}
	return &q
}

// skewWeights returns a copy of p in which about a third of the combos
// have their weights negated, so that their worths clamp at zero, and
// about a sixth of the combos of two classes or more are untrained.
func skewWeights(rng *rand.Rand, p *Plan) *Plan {
	q := *p
	q.weights = slices.Clone(p.weights)
	for combo, w := range q.weights {
		switch rng.Intn(6) {
		case 0, 1:
			if w == nil {
				continue
			}
			neg := make([]float64, len(w))
			for i, x := range w {
				neg[i] = -x
			}
			q.weights[combo] = neg
		case 2:
			if ComboMask(combo).Size() > 1 {
				q.weights[combo] = nil
			}
		}
	}
	return &q
}

// readCoverage counts the ways the checked reads were served, so a test
// can insist that each was exercised.
type readCoverage struct {
	hits      int // table hits, any combo
	clamps    int // trained misses whose clamp at zero fired
	untrained int // untrained combos that missed the table
	rows      int // decided by worth rows
	rowClamps int // ... with the clamp at zero firing
	rowLookup int // a combo with rows whose every slot lies inside the key box
	rowHits   int // table hits of combos with rows
}

// note classifies the read of a coalition of combo with features feat
// under ev's plan and rows.
func (c *readCoverage) note(ev *SymEval, combo ComboMask, feat *[maxFeatureLen]float64) {
	if combo == 0 {
		return
	}
	p := ev.plan
	flen := combo.Size() * int(vm.NumComponents)
	t := p.table[combo]
	inBox := t != nil && p.resolution > 0
	for i := 0; inBox && i < flen; i++ {
		c := latticeCoord(feat[i], p.resolution)
		inBox = t.lo[i] <= c && c <= t.hi[i]
	}
	rows := ev.masked && int(combo) < len(ev.rowOf) && ev.rowOf[combo] != 0
	hit := false
	if inBox {
		_, hit = t.lookup(feat, flen, p.resolution)
	}
	var dot float64
	for i, x := range p.weights[combo] {
		dot += float64(x * feat[i])
	}
	switch {
	case hit:
		c.hits++
		if rows {
			c.rowHits++
		}
	case p.weights[combo] == nil:
		c.untrained++
	case dot < 0:
		c.clamps++
	}
	switch {
	case rows && !inBox:
		c.rows++
		if dot < 0 {
			c.rowClamps++
		}
	case rows:
		c.rowLookup++
	}
}

// refFeatures is the reference collapsed feature builder: every class
// adds its shared state t[j] times, member by member, in class order —
// the float sequence the pre-tabulation evaluator produced and the one
// SymEval must reproduce bit for bit.
func refFeatures(classes []SymClass, t []int) (ComboMask, [maxFeatureLen]float64) {
	const k = int(vm.NumComponents)
	var combo ComboMask
	for j := range classes {
		if t[j] > 0 {
			combo |= classes[j].Bit
		}
	}
	var feat [maxFeatureLen]float64
	for j := range classes {
		base := bits.OnesCount16(uint16(combo&(classes[j].Bit-1))) * k
		for x := 0; x < t[j]; x++ {
			for c := 0; c < k; c++ {
				feat[base+c] += classes[j].State[c]
			}
		}
	}
	return combo, feat
}

// TestSymEvalMatchesReference drives random class layouts — several
// classes per feature slot in random order, big and small classes,
// slots large enough to spill past symSlotBudget into tail classes —
// through successive Resets (new layouts, moved states, repeats) and
// insists every count vector's features equal the member-by-member
// reference bit for bit, and its worth equal the plan's worth of them.
// The first two ticks of a layout read the trained rig; the last two
// read a copy whose tables also store the keys of sampled count vectors,
// with skewed weights (see withKeys and skewWeights), so reads hit the
// table, clamp and meet untrained combos.
func TestSymEvalMatchesReference(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 37)
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	bitsAvail := []ComboMask{plan.classBit[0], plan.classBit[2], plan.classBit[3]}
	rng := rand.New(rand.NewSource(41))
	randState := func() vm.State {
		var s vm.State
		for c := range s {
			s[c] = rng.Float64()
		}
		return s
	}
	var ev SymEval
	var cov readCoverage
	tails := 0
	for layout := 0; layout < 60; layout++ {
		k := 1 + rng.Intn(6)
		sym := make([]SymClass, k)
		for j := range sym {
			sym[j] = SymClass{Bit: bitsAvail[rng.Intn(len(bitsAvail))], State: randState(), Count: 1 + rng.Intn(12), First: j}
		}
		if layout%10 == 9 {
			// Two big classes in one slot: 301·301 entries exceed the
			// slot budget, so the second is added member by member.
			sym = append(sym, SymClass{Bit: sym[0].Bit, State: randState(), Count: 300, First: k},
				SymClass{Bit: sym[0].Bit, State: randState(), Count: 300, First: k + 1})
		}
		trials := 300
		if layout%10 == 4 {
			// A leading class too big to tabulate at all: its slot has no
			// table entries but the empty sum.
			sym = append([]SymClass{{Bit: sym[0].Bit, State: randState(), Count: symSlotBudget}}, sym...)
			trials = 10
		}
		tp := plan
		tv := make([]int, len(sym))
		for tick := 0; tick < 4; tick++ {
			if tick > 0 {
				// Move some classes' states, keep the layout.
				for j := range sym {
					if rng.Intn(3) == 0 {
						sym[j].State = randState()
					}
				}
			}
			if tick == 2 {
				var samples []keySample
				for i := 1 << rng.Intn(6); i > 0; i-- {
					for j := range tv {
						tv[j] = rng.Intn(sym[j].Count + 1)
					}
					if combo, feat := refFeatures(sym, tv); combo != 0 {
						samples = append(samples, keySample{combo, feat})
					}
				}
				tp = skewWeights(rng, withKeys(rng, plan, plan.resolution, samples))
			}
			if err := ev.Reset(tp, sym); err != nil {
				t.Fatal(err)
			}
			tails += len(ev.tail)
			for trial := 0; trial < trials; trial++ {
				for j := range tv {
					tv[j] = rng.Intn(sym[j].Count + 1)
				}
				wantCombo, want := refFeatures(sym, tv)
				var got [maxFeatureLen]float64
				combo, err := ev.features(tv, &got)
				if err != nil {
					t.Fatal(err)
				}
				if combo != wantCombo {
					t.Fatalf("layout %d tick %d t=%v: combo %s, want %s", layout, tick, tv, combo, wantCombo)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("layout %d tick %d t=%v feature %d: %v, want %v (bits differ)",
							layout, tick, tv, i, got[i], want[i])
					}
				}
				v, err := ev.EvalCounts(tv)
				wantV, wantErr := 0.0, error(nil)
				if combo != 0 {
					wantV, wantErr = tp.worth(combo, &want)
				}
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("layout %d tick %d t=%v: EvalCounts err %v, worth err %v", layout, tick, tv, err, wantErr)
				}
				if math.Float64bits(v) != math.Float64bits(wantV) {
					t.Fatalf("layout %d tick %d t=%v: worth %v, want %v", layout, tick, tv, v, wantV)
				}
				cov.note(&ev, combo, &want)
			}
		}
	}
	if tails == 0 {
		t.Fatal("no layout exercised a tail class")
	}
	t.Logf("reads: %+v", cov)
	if cov.hits == 0 || cov.clamps == 0 || cov.untrained == 0 {
		t.Fatalf("reads not all exercised: %+v", cov)
	}
}

// TestClassedFeaturesRunningMatchesMask pins the wide-set feature builder
// to the mask form bit for bit on every coalition both can represent.
func TestClassedFeaturesRunningMatchesMask(t *testing.T) {
	set := testSet(t)
	classes, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	full := vm.GrandCoalition(set.Len())
	for trial := 0; trial < 200; trial++ {
		mask := vm.Coalition(rng.Intn(int(full) + 1))
		states := make([]vm.State, set.Len())
		for i := range states {
			for c := 0; c < int(vm.NumComponents); c++ {
				states[i][c] = rng.Float64()
			}
		}
		running := make([]bool, set.Len())
		for i := range running {
			running[i] = mask.Contains(vm.ID(i))
		}
		combo, feats, err := ClassedFeaturesFor(set, mask, states, classes)
		if err != nil {
			t.Fatal(err)
		}
		comboR, featsR, err := ClassedFeaturesRunning(set, running, states, classes)
		if err != nil {
			t.Fatal(err)
		}
		if combo != comboR {
			t.Fatalf("mask=%s: combo %s != running combo %s", mask, combo, comboR)
		}
		if len(feats) != len(featsR) {
			t.Fatalf("mask=%s: %d features vs %d", mask, len(feats), len(featsR))
		}
		for i := range feats {
			if feats[i] != featsR[i] {
				t.Fatalf("mask=%s feature %d: %v != %v", mask, i, feats[i], featsR[i])
			}
		}
	}
	if _, _, err := ClassedFeaturesRunning(set, make([]bool, 2), make([]vm.State, set.Len()), classes); err == nil {
		t.Fatal("wrong running length must error")
	}
	if _, _, err := ClassedFeaturesRunning(set, make([]bool, set.Len()), make([]vm.State, 1), classes); err == nil {
		t.Fatal("wrong states length must error")
	}
}

// maskRig is a hand-compiled plan over n VMs whose class bits are drawn
// from nt VHC classes at random, so the classes interleave across VM
// IDs, with fitted weights for every combo and no exact-match table;
// tableRig adds the table.
func maskRig(rng *rand.Rand, n, nt int) *Plan {
	p := &Plan{
		n:        n,
		classBit: make([]ComboMask, n),
		weights:  make([][]float64, 1<<uint(nt)),
		table:    make([]*comboTable, 1<<uint(nt)),
	}
	for i := range p.classBit {
		p.classBit[i] = 1 << uint(rng.Intn(nt))
	}
	for combo := 1; combo < len(p.weights); combo++ {
		w := make([]float64, ComboMask(combo).Size()*int(vm.NumComponents))
		for i := range w {
			w[i] = rng.Float64() - 0.2
		}
		p.weights[combo] = w
	}
	return p
}

// tableRig returns a copy of the mask rig p with exact-match tables at a
// resolution drawn from awkward ones, keyed on 1 to 32 coalitions of
// running sampled under states, and with skewed weights (see withKeys
// and skewWeights).
func tableRig(rng *rand.Rand, p *Plan, running vm.Coalition, states []vm.State) *Plan {
	var samples []keySample
	for i := 1 << rng.Intn(6); i > 0; i-- {
		var smp keySample
		combo, err := p.features(vm.Coalition(rng.Uint32())&running, states, &smp.feat)
		if err != nil {
			panic(err)
		}
		if combo != 0 {
			smp.combo = combo
			samples = append(samples, smp)
		}
	}
	res := []float64{0.01, 0.1, 1.0 / 3, 7e-3, 2.5}[rng.Intn(5)]
	return skewWeights(rng, withKeys(rng, p, res, samples))
}

// randMaskState draws a state whose sums do not round trivially.
func randMaskState(rng *rand.Rand) vm.State {
	var s vm.State
	for c := range s {
		s[c] = rng.Float64()
	}
	return s
}

// checkEvalMask insists that the evaluator's read of mask s equals
// Plan.Eval of s ∩ running bit for bit: the combo, every feature and the
// worth.
func checkEvalMask(t testing.TB, p *Plan, ev *SymEval, running, s vm.Coalition, states []vm.State) {
	t.Helper()
	var want, got [maxFeatureLen]float64
	wantCombo, err := p.features(s&running, states, &want)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := ev.maskFeatures(s, &got)
	if err != nil {
		t.Fatal(err)
	}
	if combo != wantCombo {
		t.Fatalf("running=%s mask=%s: combo %s, want %s", running, s, combo, wantCombo)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("running=%s mask=%s feature %d: %v, want %v (bits differ)", running, s, i, got[i], want[i])
		}
	}
	v, err := ev.EvalMask(s)
	wantV, wantErr := p.Eval(s&running, states)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("running=%s mask=%s: EvalMask err %v, Eval err %v", running, s, err, wantErr)
	}
	if math.Float64bits(v) != math.Float64bits(wantV) {
		t.Fatalf("running=%s mask=%s: EvalMask %v, Eval %v", running, s, v, wantV)
	}
}

// checkEvalMaskCovered is checkEvalMask that also notes how the read was
// served.
func checkEvalMaskCovered(t testing.TB, cov *readCoverage, p *Plan, ev *SymEval, running, s vm.Coalition, states []vm.State) {
	t.Helper()
	checkEvalMask(t, p, ev, running, s, states)
	var feat [maxFeatureLen]float64
	combo, err := p.features(s&running, states, &feat)
	if err != nil {
		t.Fatal(err)
	}
	cov.note(ev, combo, &feat)
}

// TestEvalMaskMatchesEval drives the mask-mode slot-table read over
// random layouts — 1 to MaxTypes slots with interleaved class bits,
// stopped VMs whose states must not leak in, hosts whose every class
// holds one VM, and hosts of vm.MaxPlayers VMs whose slot passes
// symSlotBudget and keeps tail members, alone or beside a second slot —
// through successive ResetMasks: moved states, and a running-set change
// that keeps the class bit at every position (VM i stops, VM i+1 of the
// same class starts), which must still rebuild the index. The first tick
// reads the fully trained rig; from the second on, the plan is a copy
// with a table keyed on sampled coalitions and skewed weights (see
// tableRig), so reads hit, clamp and meet untrained combos, through the
// worth rows and around them. Every checked mask must equal Plan.Eval
// bit for bit.
func TestEvalMaskMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ev SymEval
	var cov readCoverage
	tails, traps, singles := 0, 0, 0
	for layout := 0; layout < 64; layout++ {
		nt, n := 1+rng.Intn(MaxTypes), 1+rng.Intn(vm.MaxPlayers)
		full := vm.GrandCoalition(n)
		running := vm.Coalition(rng.Uint32()) & full
		switch layout % 8 {
		case 5:
			n = nt
			full = vm.GrandCoalition(n)
			running &= full
		case 6, 7:
			nt, n = 8-layout%8, vm.MaxPlayers // two slots, then one
			full = vm.GrandCoalition(n)
			running = full
		}
		plan := maskRig(rng, n, nt)
		switch layout % 8 {
		case 5:
			// One VM per class.
			for i := range plan.classBit {
				plan.classBit[i] = 1 << uint(i)
			}
			singles++
		case 6:
			// 20 VMs in one slot, 4 in the other.
			for i := range plan.classBit {
				plan.classBit[i] = 1 << uint(i/20)
			}
		}
		states := make([]vm.State, n)
		for i := range states {
			states[i] = randMaskState(rng)
		}
		trap := -1
		if n >= 2 {
			trap = rng.Intn(n - 1)
			plan.classBit[trap+1] = plan.classBit[trap]
			running = running.With(vm.ID(trap)).Without(vm.ID(trap + 1))
		}
		tp := plan
		for tick := 0; tick < 4; tick++ {
			switch tick {
			case 1, 3:
				for i := range states {
					if rng.Intn(3) == 0 {
						states[i] = randMaskState(rng)
					}
				}
			case 2:
				if trap >= 0 {
					running = running.Without(vm.ID(trap)).With(vm.ID(trap + 1))
					traps++
				}
			}
			if tick == 1 {
				tp = tableRig(rng, plan, running, states)
			}
			if err := ev.ResetMask(tp, running, states); err != nil {
				t.Fatal(err)
			}
			if ev.tailVMs != 0 {
				tails++
			}
			if n <= 10 {
				for s := vm.Coalition(0); s <= full; s++ {
					checkEvalMaskCovered(t, &cov, tp, &ev, running, s, states)
				}
				continue
			}
			for trial := 0; trial < 400; trial++ {
				checkEvalMaskCovered(t, &cov, tp, &ev, running, vm.Coalition(rng.Uint32())&full, states)
			}
			for _, s := range []vm.Coalition{0, running, full} {
				checkEvalMaskCovered(t, &cov, tp, &ev, running, s, states)
			}
		}
	}
	if tails == 0 || traps == 0 || singles == 0 {
		t.Fatalf("%d layouts with tail members, %d running-set traps, %d with one VM per class; want all", tails, traps, singles)
	}
	t.Logf("reads: %+v", cov)
	if cov.rows == 0 || cov.rowClamps == 0 || cov.rowLookup == 0 || cov.rowHits == 0 || cov.untrained == 0 {
		t.Fatalf("reads not all exercised: %+v", cov)
	}
}

// TestEvalMaskErrors covers reads without a mask binding and running sets
// the plan cannot evaluate.
func TestEvalMaskErrors(t *testing.T) {
	plan := maskRig(rand.New(rand.NewSource(3)), 4, 2)
	states := make([]vm.State, 4)
	var ev SymEval
	if _, err := ev.EvalMask(1); err == nil {
		t.Fatal("EvalMask before ResetMask must error")
	}
	if err := ev.ResetMask(plan, vm.CoalitionOf(0, 4), make([]vm.State, 5)); err == nil {
		t.Fatal("running VM outside the plan must error")
	}
	if err := ev.ResetMask(plan, vm.CoalitionOf(0, 3), states); err != nil {
		t.Fatal(err)
	}
	if err := ev.ResetMask(plan, vm.CoalitionOf(0, 3), states[:3]); err == nil {
		t.Fatal("running VM without a state must error")
	}
	if _, err := ev.EvalMask(1); err == nil {
		t.Fatal("EvalMask after a failed ResetMask must error")
	}
	if err := ev.ResetMask(plan, vm.CoalitionOf(0, 3), states); err != nil {
		t.Fatal(err)
	}
	if err := ev.Reset(plan, []SymClass{{Bit: plan.classBit[0], Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalMask(1); err == nil {
		t.Fatal("EvalMask after a collapsed Reset must error")
	}
}

// TestEvalMaskZeroAlloc pins that a steady tick — ResetMask over the same
// running set with a moved state, then a read — allocates nothing.
func TestEvalMaskZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plan := maskRig(rng, 16, 3)
	states := make([]vm.State, 16)
	for i := range states {
		states[i] = randMaskState(rng)
	}
	running := vm.GrandCoalition(16).Without(5)
	var ev SymEval
	if err := ev.ResetMask(plan, running, states); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		states[3][vm.CPU] = 1 - states[3][vm.CPU]
		if err := ev.ResetMask(plan, running, states); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.EvalMask(running.Without(7)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady ResetMask + EvalMask allocates %v per run, want 0", allocs)
	}
}

// FuzzEvalMask draws a layout, states, a running set and a mask from the
// fuzzer's inputs, gives the plan a table keyed on sampled coalitions and
// skewed weights (see tableRig), reads the mask, moves the states of the
// VMs in moved, reads it again, and checks both reads against Plan.Eval
// bit for bit.
func FuzzEvalMask(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint32(0xffff), uint32(0x5a5a), uint32(0x0f))
	f.Add(int64(2), uint8(24), uint8(1), uint32(0xffffff), uint32(0xf0f0f0), uint32(0x800001))
	f.Add(int64(3), uint8(5), uint8(12), uint32(0b10110), uint32(0b11111), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, n, nt uint8, running, mask, moved uint32) {
		size, types := 1+int(n)%vm.MaxPlayers, 1+int(nt)%MaxTypes
		rng := rand.New(rand.NewSource(seed))
		plan := maskRig(rng, size, types)
		states := make([]vm.State, size)
		for i := range states {
			states[i] = randMaskState(rng)
		}
		full := vm.GrandCoalition(size)
		r, s := vm.Coalition(running)&full, vm.Coalition(mask)&full
		plan = tableRig(rng, plan, r, states)
		var ev SymEval
		for pass := 0; pass < 2; pass++ {
			if err := ev.ResetMask(plan, r, states); err != nil {
				t.Fatal(err)
			}
			checkEvalMask(t, plan, &ev, r, s, states)
			for i := range states {
				if moved&(1<<uint(i)) != 0 {
					states[i] = randMaskState(rng)
				}
			}
		}
	})
}
