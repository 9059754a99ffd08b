package vhc

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"vmpower/internal/vm"
)

func testSet(t *testing.T) *vm.Set {
	t.Helper()
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "VM1a", Type: 0},
		{Name: "VM1b", Type: 0},
		{Name: "VM2", Type: 1},
		{Name: "VM3", Type: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestComboMask(t *testing.T) {
	var c ComboMask = 0b101 // types 0 and 2
	if !c.Contains(0) || c.Contains(1) || !c.Contains(2) {
		t.Fatal("Contains wrong")
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
	types := c.Types()
	if len(types) != 2 || types[0] != 0 || types[1] != 2 {
		t.Fatalf("Types = %v", types)
	}
	if c.String() != "types{0,2}" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Fatal("want numTypes error")
	}
	if _, err := New(MaxTypes+1, Options{}); err == nil {
		t.Fatal("want numTypes error")
	}
	a, err := New(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTypes() != 4 || a.Combos() != 15 {
		t.Fatalf("NumTypes=%d Combos=%d", a.NumTypes(), a.Combos())
	}
}

func TestAddSampleValidation(t *testing.T) {
	a, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddSample(0, nil, 1); err == nil {
		t.Fatal("want empty-combo error")
	}
	if err := a.AddSample(0b01, []float64{1}, 1); !errors.Is(err, ErrFeatureLen) {
		t.Fatalf("want ErrFeatureLen, got %v", err)
	}
	// A non-finite feature or power is refused and records nothing.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := a.AddSample(0b01, []float64{1, 2, 3}, bad); err == nil {
			t.Fatalf("power %v: want an error", bad)
		}
		for i := 0; i < 3; i++ {
			f := []float64{1, 2, 3}
			f[i] = bad
			if err := a.AddSample(0b01, f, 1); err == nil {
				t.Fatalf("feature %d = %v: want an error", i, bad)
			}
		}
	}
	if n := a.SampleCount(0b01); n != 0 {
		t.Fatalf("%d samples recorded from refused inputs, want 0", n)
	}
}

// synthSamples generates noise-free linear samples for a combo with the
// given per-feature weights.
func synthSamples(t *testing.T, a *Approximator, combo ComboMask, weights []float64, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		features := make([]float64, len(weights))
		var power float64
		for j := range features {
			features[j] = rng.Float64() * 2
			power += features[j] * weights[j]
		}
		if err := a.AddSample(combo, features, power); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrainAndEstimateRecoversLinearModel(t *testing.T) {
	a, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1 := []float64{9.4, 0.3, 2.1}                 // combo {0}
	w2 := []float64{9.4, 0.3, 2.1, 17.9, 0.5, 1.2} // combo {0,1}
	synthSamples(t, a, 0b01, w1, 50, 1)
	synthSamples(t, a, 0b11, w2, 80, 2)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if !a.Trained(0b01) || !a.Trained(0b11) {
		t.Fatal("combos must be trained")
	}
	got, err := a.Weights(0b01)
	if err != nil {
		t.Fatal(err)
	}
	for j := range w1 {
		if math.Abs(got[j]-w1[j]) > 1e-6 {
			t.Fatalf("weight[%d] = %g, want %g", j, got[j], w1[j])
		}
	}
	cpuW, err := a.CPUWeights(0b11)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpuW) != 2 || math.Abs(cpuW[0]-9.4) > 1e-6 || math.Abs(cpuW[1]-17.9) > 1e-6 {
		t.Fatalf("CPUWeights = %v", cpuW)
	}
	// Estimation at a fresh state matches the generating model.
	features := []float64{0.7, 0.2, 0.05}
	want := 0.7*9.4 + 0.2*0.3 + 0.05*2.1
	est, err := worthOf(planFor(t, a), 0b01, features)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-want) > 1e-6 {
		t.Fatalf("Worth = %g, want %g", est, want)
	}
}

func TestEstimateTableHit(t *testing.T) {
	// With a coarse resolution, estimating at a previously measured
	// (quantized) state returns the recorded measurement, not the model.
	a, err := New(1, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	features := []float64{0.5, 0.1, 0}
	if err := a.AddSample(0b1, features, 42); err != nil {
		t.Fatal(err)
	}
	// Add enough spread so training succeeds with a very different model.
	synthSamples(t, a, 0b1, []float64{1, 1, 1}, 30, 3)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, a)
	est, err := worthOf(plan, 0b1, []float64{0.5, 0.1, 0})
	if err != nil {
		t.Fatal(err)
	}
	// The table entry averages the sample(s) recorded at that key; the
	// exact value depends on whether a synthetic sample collided, but it
	// must be dominated by the 42 W measurement.
	if est < 20 {
		t.Fatalf("Worth = %g, want table-dominated value near 42", est)
	}
	// A nearby-but-different quantized state misses the table and uses
	// the linear model, whose prediction is far below the 42 W outlier
	// (the outlier skews the fit but cannot dominate 30 clean samples).
	est2, err := worthOf(plan, 0b1, []float64{0.77, 0.13, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if est2 > 10 {
		t.Fatalf("model estimate = %g, want well below the 42 W table entry", est2)
	}
}

func TestEstimateErrors(t *testing.T) {
	a, err := New(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, a)
	if _, err := worthOf(plan, 0b01, make([]float64, 3)); !errors.Is(err, ErrUntrained) {
		t.Fatalf("untrained: %v", err)
	}
	got, err := plan.Eval(vm.EmptyCoalition, make([]vm.State, 2))
	if err != nil || got != 0 {
		t.Fatalf("empty coalition = (%g, %v), want (0, nil)", got, err)
	}
	if _, err := a.Weights(0b01); !errors.Is(err, ErrUntrained) {
		t.Fatalf("Weights untrained: %v", err)
	}
}

func TestTrainDegenerateSamplesUsesRidge(t *testing.T) {
	// All-zero features are rank deficient; ridge must still produce a
	// model rather than failing.
	a, err := New(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := a.AddSample(0b1, make([]float64, 3), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	est, err := worthOf(planFor(t, a), 0b1, []float64{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est) > 1e-6 {
		t.Fatalf("degenerate model estimate = %g, want 0", est)
	}
}

func TestSampleCount(t *testing.T) {
	a, _ := New(1, Options{})
	if a.SampleCount(0b1) != 0 {
		t.Fatal("fresh approximator has no samples")
	}
	synthSamples(t, a, 0b1, []float64{1, 1, 1}, 7, 4)
	if a.SampleCount(0b1) != 7 {
		t.Fatalf("SampleCount = %d", a.SampleCount(0b1))
	}
}

// Property: estimates are never negative (clamped), for any trained model
// and any in-range feature vector.
func TestEstimateNonNegativeProperty(t *testing.T) {
	a, _ := New(1, Options{})
	// Train a model with a negative weight to force negative raw dots.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		f := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		power := -3*f[0] + 0.5*f[1] // deliberately sign-mixed
		if power < 0 {
			power = 0
		}
		if err := a.AddSample(0b1, f, power); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	plan := planFor(t, a)
	f := func(a1, a2, a3 float64) bool {
		clip := func(x float64) float64 {
			x = math.Abs(math.Mod(x, 4))
			if math.IsNaN(x) {
				return 0
			}
			return x
		}
		est, err := worthOf(plan, 0b1, []float64{clip(a1), clip(a2), clip(a3)})
		return err == nil && est >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// trainBytesPerKey bounds the bytes Train allocates per stored key in
// TestTrainFootprint, the fit's matrices included. Train measured 187–190
// (Go 1.24, linux/amd64, with and without -race), and 471 with a padded
// 288-byte key per entry, which alone exceeds the bound.
const trainBytesPerKey = 240

// TestTrainFootprint pins the v(S,C) table's footprint: on ~1,600
// distinct one-class keys, the shape of a large-VM Xeon host's
// calibration, Train allocates at most trainBytesPerKey bytes per stored
// key, fit included. It reads the heap counters around Train, so it must
// not run in parallel with other tests.
func TestTrainFootprint(t *testing.T) {
	a, err := New(1, Options{Resolution: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1600; i++ {
		f := []float64{float64(rng.Intn(800)) / 100, float64(rng.Intn(800)) / 100, float64(rng.Intn(800)) / 100}
		if err := a.AddSample(1, f, 40+9*f[0]+2*f[1]+f[2]); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	keys := len(a.model.Load().table(1).index)
	if keys < 1500 {
		t.Fatalf("%d stored keys, want ~1,600 distinct ones", keys)
	}
	perKey := float64(after.TotalAlloc-before.TotalAlloc) / float64(keys)
	t.Logf("Train allocated %.0f bytes per stored key over %d keys", perKey, keys)
	if perKey > trainBytesPerKey {
		t.Fatalf("Train allocates %.0f bytes per stored key, want at most %d", perKey, trainBytesPerKey)
	}
}
