package vhc

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
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
// so they form a genuine 2-member symmetry class.
func TestEvalCountsMatchesEval(t *testing.T) {
	for _, res := range []float64{0, 0.01, 0.1} {
		set, classes, a := trainedRig(t, res, 23)
		plan, err := NewPlan(set, classes, a)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		var ev SymEval
		for trial := 0; trial < 500; trial++ {
			states := make([]vm.State, set.Len())
			for i := range states {
				for c := 0; c < int(vm.NumComponents); c++ {
					states[i][c] = math.Round(rng.Float64()*100) / 100
				}
			}
			states[1] = states[0] // collapse VMs 0 and 1 into one class
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
		for tick := 0; tick < 4; tick++ {
			if tick > 0 {
				// Move some classes' states, keep the layout.
				for j := range sym {
					if rng.Intn(3) == 0 {
						sym[j].State = randState()
					}
				}
			}
			if err := ev.Reset(plan, sym); err != nil {
				t.Fatal(err)
			}
			tails += len(ev.tail)
			tv := make([]int, len(sym))
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
				if err != nil {
					t.Fatal(err)
				}
				wantV := 0.0
				if combo != 0 {
					if wantV, err = plan.worth(combo, &want); err != nil {
						t.Fatal(err)
					}
				}
				if math.Float64bits(v) != math.Float64bits(wantV) {
					t.Fatalf("layout %d tick %d t=%v: worth %v, want %v", layout, tick, tv, v, wantV)
				}
			}
		}
	}
	if tails == 0 {
		t.Fatal("no layout exercised a tail class")
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
