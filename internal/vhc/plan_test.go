package vhc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// rawEstimate is the plan's oracle: it prices (combo, feat) from a's raw
// samples, without the published tables or their keys. The worth is the
// mean, in arrival order, of the samples whose features round to feat's
// lattice coordinates, else the combo's linalg dot product clamped at
// zero. It describes the published model only while no sample has been
// added since the last Train.
func rawEstimate(a *Approximator, combo ComboMask, feat []float64) (float64, error) {
	if res := a.resolution; res > 0 {
		a.mu.Lock()
		samples := a.samples[combo]
		a.mu.Unlock()
		sameCoord := func(f, g float64) bool { return math.Round(f/res) == math.Round(g/res) }
		var sum float64
		count := 0
		for _, s := range samples {
			if slices.EqualFunc(s.Features, feat, sameCoord) {
				sum += s.Power
				count++
			}
		}
		if count > 0 {
			return sum / float64(count), nil
		}
	}
	w, err := a.Weights(combo)
	if err != nil {
		return 0, err
	}
	p, err := w.Dot(feat)
	if err != nil {
		return 0, err
	}
	if p < 0 {
		p = 0
	}
	return p, nil
}

// worthOf prices a feature slice through the plan's Worth.
func worthOf(p *Plan, combo ComboMask, feats []float64) (float64, error) {
	var feat [MaxFeatureLen]float64
	copy(feat[:], feats)
	return p.Worth(combo, &feat)
}

// planFor builds a plan over a's published model for a set of one VM of
// each of a's classes (at most the paper catalog's four).
func planFor(t testing.TB, a *Approximator) *Plan {
	t.Helper()
	vms := make([]vm.VM, a.NumTypes())
	for i := range vms {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%d", i), Type: vm.TypeID(i)}
	}
	set, err := vm.NewSet(vm.PaperCatalog()[:a.NumTypes()], vms)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := IdentityClassMap(a.NumTypes())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// storedKeys decodes the lattice keys of combo's published table.
func storedKeys(t testing.TB, a *Approximator, combo ComboMask) [][]int64 {
	t.Helper()
	table := a.model.Load().table(combo)
	if table == nil {
		return nil
	}
	flen := a.featureLen(combo)
	keys := make([][]int64, 0, len(table.index))
	for k := range table.index {
		if len(k) != 8*flen {
			t.Fatalf("combo %s: stored key of %d bytes, want %d", combo, len(k), 8*flen)
		}
		key := make([]int64, flen)
		for i := range key {
			key[i] = int64(binary.LittleEndian.Uint64([]byte(k[8*i:])))
		}
		keys = append(keys, key)
	}
	return keys
}

// sameWorth fails the test unless the plan and the oracle agree on feat:
// the same error class, or the same bits. It returns the worth.
func sameWorth(t *testing.T, plan *Plan, a *Approximator, combo ComboMask, feat []float64, what string) float64 {
	t.Helper()
	got, gotErr := worthOf(plan, combo, feat)
	want, wantErr := rawEstimate(a, combo, feat)
	if (gotErr != nil) != (wantErr != nil) || (gotErr != nil && !errors.Is(gotErr, ErrUntrained)) {
		t.Fatalf("res=%g combo %s %s %v: plan err %v, oracle err %v", a.resolution, combo, what, feat, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("res=%g combo %s %s %v: plan %v, oracle %v", a.resolution, combo, what, feat, got, want)
	}
	return got
}

// TestPlanMatchesEstimateBitForBit drives randomized coalitions and
// states through the plan and through ClassedFeaturesFor priced by the
// raw-sample estimate, and insists on identical bits — including states
// that hit the exact-match table (quantized to the resolution lattice,
// as the hypervisor quantizes snapshots) and states that fall through to
// the regression.
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
			if !mask.IsEmpty() {
				combo, feats, err := ClassedFeaturesFor(set, flagsOf(mask, set.Len()), states, classes)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr = rawEstimate(a, combo, feats)
			}
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("res=%g mask=%s: plan err %v, oracle err %v", res, mask, gotErr, wantErr)
			}
			if gotErr == nil && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("res=%g mask=%s: plan %v != oracle %v (diff %g)",
					res, mask, got, want, got-want)
			}
		}
	}
}

// TestPlanTableHit pins that a state measured offline is served from the
// trained model's table mean.
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
	want, err := rawEstimate(a, combo, feats)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Eval(mask, states)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan table hit %v != oracle %v", got, want)
	}
	// Sanity: the hit really is the table mean of the two samples.
	if math.Abs(want-123.956) > 1e-9 {
		t.Fatalf("table mean = %v, want 123.956", want)
	}
}

// TestPlanWorthMatchesRawSamples pins the one reader of the published
// model to rawEstimate, bit for bit, over random models whose samples
// share keys and whose weights have negative components: at the lattice
// centre of every stored key (each must hit, so the box may never reject
// a stored key), at every raw sample's own features, one lattice step
// outside the box on each side of every coordinate (each must miss), at
// features that drive the dot product negative (the clamp) and on an
// untrained combo (the error). Online ticks never hit the table, so this
// is the hit path's coverage.
func TestPlanWorthMatchesRawSamples(t *testing.T) {
	const types = 3
	hits, clamps := 0, 0
	for _, res := range []float64{0, 0.01, 0.05, 0.1, 0.25} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(100*seed + int64(res*100)))
			a, err := New(types, Options{Resolution: res})
			if err != nil {
				t.Fatal(err)
			}
			// Every combo but the last is trained on a sign-mixed linear
			// power over features on a coarse 0.01 grid, so coarse
			// resolutions gather several samples under one key.
			untrained := ComboMask(1)<<types - 1
			for combo := ComboMask(1); combo < untrained; combo++ {
				flen := a.featureLen(combo)
				coef := make([]float64, flen)
				for i := range coef {
					coef[i] = 30*rng.Float64() - 10
				}
				for s := 0; s < 40; s++ {
					f := make([]float64, flen)
					power := 5.0
					for i := range f {
						f[i] = float64(rng.Intn(60)) / 100
						power += coef[i] * f[i]
					}
					if err := a.AddSample(combo, f, math.Max(power, 0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := a.Train(); err != nil {
				t.Fatal(err)
			}
			plan := planFor(t, a)
			for combo := ComboMask(1); combo <= untrained; combo++ {
				flen := a.featureLen(combo)
				a.mu.Lock()
				samples := a.samples[combo]
				a.mu.Unlock()
				for _, s := range samples {
					sameWorth(t, plan, a, combo, s.Features, "sample")
				}
				if w, err := a.Weights(combo); err == nil {
					neg := make([]float64, flen)
					for i, x := range w {
						neg[i] = -x
					}
					if v := sameWorth(t, plan, a, combo, neg, "negated weights"); v != 0 {
						t.Fatalf("combo %s: worth %v at the negated weights, want the clamp's 0", combo, v)
					}
					if d, _ := w.Dot(neg); d < 0 {
						clamps++
					}
				} else {
					sameWorth(t, plan, a, combo, make([]float64, flen), "untrained")
				}
				keys := storedKeys(t, a, combo)
				if len(keys) == 0 {
					continue
				}
				var lo, hi [MaxFeatureLen]int64
				copy(lo[:], keys[0])
				copy(hi[:], keys[0])
				for _, key := range keys {
					centre := make([]float64, flen)
					for i, c := range key {
						centre[i] = float64(c) * res
						lo[i], hi[i] = min(lo[i], c), max(hi[i], c)
					}
					var feat [MaxFeatureLen]float64
					copy(feat[:], centre)
					if _, ok := plan.TableMean(combo, &feat); !ok {
						t.Fatalf("res=%g combo %s: stored key %v misses at its lattice centre", res, combo, key)
					}
					sameWorth(t, plan, a, combo, centre, "key centre")
					hits++
				}
				for i := 0; i < flen; i++ {
					for _, c := range []int64{lo[i] - 1, hi[i] + 1} {
						out := make([]float64, flen)
						for j, k := range keys[0] {
							out[j] = float64(k) * res
						}
						out[i] = float64(c) * res
						var feat [MaxFeatureLen]float64
						copy(feat[:], out)
						if _, ok := plan.TableMean(combo, &feat); ok {
							t.Fatalf("res=%g combo %s: coordinate %d at %d, outside the box, hits", res, combo, i, c)
						}
						sameWorth(t, plan, a, combo, out, "outside the box")
					}
				}
			}
			if _, err := worthOf(plan, untrained, make([]float64, a.featureLen(untrained))); !errors.Is(err, ErrUntrained) {
				t.Fatalf("untrained combo %s: err %v, want ErrUntrained", untrained, err)
			}
		}
	}
	if hits == 0 || clamps == 0 {
		t.Fatalf("the random models saw %d table hits and %d clamps, want both", hits, clamps)
	}
	t.Logf("%d table hits, %d clamps", hits, clamps)
}

// TestPlanWorthZeroAlloc pins that pricing through the plan allocates
// nothing on a table hit, on a miss that reaches the map and on a miss
// the box rejects.
func TestPlanWorthZeroAlloc(t *testing.T) {
	a, err := New(1, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range [][]float64{{0.5, 0.1, 0}, {0.7, 0.3, 0.2}, {0.6, 0.2, 0.1}, {0.9, 0.4, 0.3}} {
		if err := a.AddSample(1, f, 40*f[0]+f[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, a)
	for _, tc := range []struct {
		name string
		feat [MaxFeatureLen]float64
		hit  bool
	}{
		{"hit", [MaxFeatureLen]float64{0.5, 0.1, 0}, true},
		{"map miss", [MaxFeatureLen]float64{0.6, 0.3, 0.2}, false},
		{"box miss", [MaxFeatureLen]float64{2, 0.3, 0.2}, false},
	} {
		if _, ok := plan.TableMean(1, &tc.feat); ok != tc.hit {
			t.Fatalf("%s: table hit %v, want %v", tc.name, ok, tc.hit)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := plan.Worth(1, &tc.feat); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Plan.Worth allocates %v per run, want 0", tc.name, allocs)
		}
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
	unpublished, err := NewPlan(set, classes, a)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := unpublished.Eval(mask, states); err != nil || got != before || !plan.Reads(a) {
		t.Fatalf("after AddSample: a new plan serves %v (%v), the old plan reads the model %v; want %v and true", got, err, plan.Reads(a), before)
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
	if got != measured {
		t.Fatalf("after Train: plan %v, want the measured %v", got, measured)
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
