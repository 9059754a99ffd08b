package vhc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vmpower/internal/vm"
)

// trainedRig builds a set, class map and approximator trained on random
// samples for every combo the set can form, with the given resolution.
func trainedRig(t *testing.T, res float64, seed int64) (*vm.Set, *ClassMap, *Approximator) {
	t.Helper()
	set := testSet(t) // 2x type0, 1x type1, 1x type2 on the paper catalog
	classes, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(classes.Classes, Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	full := vm.GrandCoalition(set.Len())
	for mask := vm.Coalition(1); mask <= full; mask++ {
		combo, err := ClassComboFor(set, mask, classes)
		if err != nil {
			t.Fatal(err)
		}
		if combo == 0 {
			continue
		}
		for s := 0; s < 12; s++ {
			states := make([]vm.State, set.Len())
			for i := range states {
				for c := 0; c < int(vm.NumComponents); c++ {
					states[i][c] = math.Round(rng.Float64()*100) / 100
				}
			}
			_, feats, err := ClassedFeaturesFor(set, flagsOf(mask, set.Len()), states, classes)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.AddSample(combo, feats, 5+20*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	return set, classes, a
}

// TestPlanMatchesEstimateBitForBit drives randomized coalitions and
// states through both the compiled plan and the legacy
// ClassedFeaturesFor + Estimate pipeline and insists on identical bits —
// including states that hit the exact-match table (quantized to the
// resolution lattice, as the hypervisor quantizes snapshots) and states
// that fall through to the regression.
func TestPlanMatchesEstimateBitForBit(t *testing.T) {
	for _, res := range []float64{0, 0.01, 0.1} {
		set, classes, a := trainedRig(t, res, 42)
		plan, err := NewPlan(set, classes, a)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		full := vm.GrandCoalition(set.Len())
		for trial := 0; trial < 2000; trial++ {
			mask := vm.Coalition(rng.Intn(int(full) + 1))
			states := make([]vm.State, set.Len())
			for i := range states {
				for c := 0; c < int(vm.NumComponents); c++ {
					states[i][c] = math.Round(rng.Float64()*100) / 100
				}
			}
			got, gotErr := plan.Eval(mask, states)

			var want float64
			var wantErr error
			if mask.IsEmpty() {
				want = 0
			} else {
				combo, feats, err := ClassedFeaturesFor(set, flagsOf(mask, set.Len()), states, classes)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr = a.Estimate(combo, feats)
			}
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("res=%g mask=%s: plan err %v, legacy err %v", res, mask, gotErr, wantErr)
			}
			if gotErr == nil && got != want {
				t.Fatalf("res=%g mask=%s: plan %v != legacy %v (diff %g)",
					res, mask, got, want, got-want)
			}
		}
	}
}

// TestPlanTableHit pins that a state measured offline is served from the
// trained model's table mean, identically through the plan and the
// approximator.
func TestPlanTableHit(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 3)
	mask := vm.CoalitionOf(0, 1)
	states := []vm.State{
		{vm.CPU: 0.25, vm.Memory: 0.5, vm.DiskIO: 0.75},
		{vm.CPU: 0.5, vm.Memory: 0.25, vm.DiskIO: 0.1},
		{}, {},
	}
	combo, feats, err := ClassedFeaturesFor(set, flagsOf(mask, set.Len()), states, classes)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddSample(combo, feats, 123.456); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSample(combo, feats, 124.456); err != nil {
		t.Fatal(err)
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Estimate(combo, feats)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Eval(mask, states)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan table hit %v != estimate %v", got, want)
	}
	// Sanity: the hit really is the table mean of the two samples.
	if math.Abs(want-123.956) > 1e-9 {
		t.Fatalf("table mean = %v, want 123.956", want)
	}

	// Over random models: the feature vector at the lattice centre of
	// every stored key must still hit the model's table — the bounds check
	// may never reject a stored key — and match Approximator.Estimate bit
	// for bit. Online ticks never hit the table, so this is the hit
	// path's coverage.
	hits := 0
	for _, res := range []float64{0.01, 0.05, 0.1, 0.25} {
		for seed := int64(1); seed <= 4; seed++ {
			set, classes, a := trainedRig(t, res, 100*seed)
			plan, err := NewPlan(set, classes, a)
			if err != nil {
				t.Fatal(err)
			}
			for c, table := range a.model.Load().tables {
				if table == nil {
					continue
				}
				combo, flen := ComboMask(c), a.featureLen(ComboMask(c))
				for key, e := range table.entries {
					var feat [MaxFeatureLen]float64
					for i := 0; i < flen; i++ {
						feat[i] = float64(key[i]) * res
					}
					if a.key(feat[:flen]) != key {
						t.Fatalf("res=%g combo %s: lattice centre does not quantize back to its key", res, combo)
					}
					got, err := plan.Worth(combo, &feat)
					if err != nil {
						t.Fatal(err)
					}
					want, err := a.Estimate(combo, feat[:flen])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) || got != e.mean() {
						t.Fatalf("res=%g combo %s key %v: plan %v, estimate %v, table mean %v",
							res, combo, key[:flen], got, want, e.mean())
					}
					hits++
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("the random models stored no keys")
	}
}

// TestPlanUntrainedCombo pins the error parity with the legacy path when
// a coalition's combo has neither table entries nor a fitted model.
func TestPlanUntrainedCombo(t *testing.T) {
	set := testSet(t)
	classes, err := IdentityClassMap(len(set.Catalog()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(classes.Classes, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Train only the type-0 combo.
	states := []vm.State{{vm.CPU: 0.5}, {vm.CPU: 0.25}, {}, {}}
	for i := 0; i < 4; i++ {
		states[0][vm.CPU] = 0.1 * float64(i+1)
		_, feats, err := ClassedFeaturesFor(set, flagsOf(vm.CoalitionOf(0, 1), set.Len()), states, classes)
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
	if _, err := plan.Eval(vm.CoalitionOf(0, 1), states); err != nil {
		t.Fatalf("trained combo: %v", err)
	}
	_, err = plan.Eval(vm.CoalitionOf(2), states)
	if !errors.Is(err, ErrUntrained) {
		t.Fatalf("untrained combo err = %v, want ErrUntrained", err)
	}
}

// TestPlanEvalZeroAlloc is the tentpole's core claim: evaluating a worth
// through the compiled plan allocates nothing, on both the table-hit and
// the regression path.
func TestPlanEvalZeroAlloc(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 11)
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]vm.State, set.Len())
	for i := range states {
		states[i] = vm.State{vm.CPU: 0.37, vm.Memory: 0.12, vm.DiskIO: 0.05}
	}
	mask := vm.GrandCoalition(set.Len())
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := plan.Eval(mask, states); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("plan.Eval allocates %v per run, want 0", allocs)
	}
}

// TestPlanReadsPublishedModel pins the model lifecycle: a sample reaches
// no estimate until Train publishes it, a plan keeps reading the model it
// was built on, and a plan built after Train serves the new model.
func TestPlanReadsPublishedModel(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 5)
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reads(a) {
		t.Fatal("a fresh plan must read the published model")
	}
	mask := vm.CoalitionOf(0, 2)
	states := []vm.State{{vm.CPU: 0.5, vm.Memory: 0.25}, {}, {vm.CPU: 0.75, vm.DiskIO: 0.5}, {}}
	combo, feats, err := ClassedFeaturesFor(set, flagsOf(mask, set.Len()), states, classes)
	if err != nil {
		t.Fatal(err)
	}
	before, err := plan.Eval(mask, states)
	if err != nil {
		t.Fatal(err)
	}
	const measured = 1234.5
	if err := a.AddSample(combo, feats, measured); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Estimate(combo, feats); err != nil || got != before || !plan.Reads(a) {
		t.Fatalf("after AddSample: estimate %v (%v), plan reads the model %v; want %v and true", got, err, plan.Reads(a), before)
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if plan.Reads(a) {
		t.Fatal("Train published a model the old plan still reads")
	}
	if got, err := plan.Eval(mask, states); err != nil || math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("the old plan moved to %v (%v), want its model's %v", got, err, before)
	}
	fresh, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Eval(mask, states)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Estimate(combo, feats)
	if err != nil {
		t.Fatal(err)
	}
	if got != measured || want != measured {
		t.Fatalf("after Train: plan %v, estimate %v, want the measured %v", got, want, measured)
	}
}

// TestPlanValidation covers the compile-time failure modes.
func TestPlanValidation(t *testing.T) {
	set, classes, a := trainedRig(t, 0.01, 9)
	if _, err := NewPlan(nil, classes, a); !errors.Is(err, ErrPlan) {
		t.Fatalf("nil set err = %v", err)
	}
	bad := &ClassMap{ByType: []int{0}, Classes: 2}
	if _, err := NewPlan(set, bad, a); !errors.Is(err, ErrPlan) {
		t.Fatalf("mismatched classes err = %v", err)
	}
	// Right class count, but the set's type 2 is not covered by the map.
	short := &ClassMap{ByType: []int{0, 1}, Classes: 4}
	if _, err := NewPlan(set, short, a); !errors.Is(err, ErrPlan) {
		t.Fatalf("uncovered type err = %v", err)
	}
}
