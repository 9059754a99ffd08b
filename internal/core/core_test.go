package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"vmpower/internal/faults"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// testRig builds a host (2×VM1, 1×VM2 on the Xeon), a perfect meter and an
// estimator with short offline runs.
func testRig(t *testing.T, cfg Config) (*hypervisor.Host, *Estimator) {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "VM1a", Type: 0},
		{Name: "VM1b", Type: 0},
		{Name: "VM2", Type: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.Perfect(host.PowerSource())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OfflineTicksPerCombo == 0 {
		cfg.OfflineTicksPerCombo = 120
	}
	if cfg.IdleMeasureTicks == 0 {
		cfg.IdleMeasureTicks = 5
	}
	est, err := New(host, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return host, est
}

func TestNewValidation(t *testing.T) {
	host, _ := testRig(t, Config{})
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Fatal("want nil-host error")
	}
	if _, err := New(host, nil, Config{}); err == nil {
		t.Fatal("want nil-meter error")
	}
}

func TestUntrainedEstimate(t *testing.T) {
	host, est := testRig(t, Config{})
	snap := host.Collect()
	if _, err := est.Estimate(snap, 150); !errors.Is(err, ErrUntrained) {
		t.Fatalf("want ErrUntrained, got %v", err)
	}
	if est.Trained() {
		t.Fatal("estimator must start untrained")
	}
}

func TestCollectOffline(t *testing.T) {
	host, est := testRig(t, Config{Seed: 1})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if !est.Trained() {
		t.Fatal("estimator must be trained")
	}
	// The Xeon idles at 138 W; a perfect meter must recover it exactly.
	if math.Abs(est.IdlePower()-138) > 1e-9 {
		t.Fatalf("IdlePower = %g, want 138", est.IdlePower())
	}
	if slices.Contains(host.Running(), true) {
		t.Fatal("collection must stop all VMs")
	}
	// Combos for both present types (2 of the catalog's 4) are trained;
	// the two-type paper catalog host has types {0, 1} populated.
	approx := est.Approximator()
	if !approx.Trained(0b0001) || !approx.Trained(0b0010) || !approx.Trained(0b0011) {
		t.Fatal("populated combos must be trained")
	}
	if approx.SampleCount(0b0001) == 0 {
		t.Fatal("samples must be recorded")
	}
}

// offlineAllocsPerSample bounds CollectOffline's allocations per offline
// sample. Two are per sample: AddSample's copy of the features, and
// Train's v(S,C) table key for it, which Go stores out of line because it
// is over 128 bytes (samples that share a key share it). The rest is the
// amortized growth of the sample list and the table, and the fit.
// Collecting the tick, reading the meter's ground truth and aggregating
// the features allocate nothing.
const offlineAllocsPerSample = 2.1

// largeXeonRig builds an uncalibrated estimator for one host of
// fleet32's shape: a Xeon of 8 large VMs behind a noisy meter.
func largeXeonRig(t testing.TB) *Estimator {
	t.Helper()
	large := make([]vm.VM, 8)
	for i := range large {
		large[i].Type = 2
	}
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), large)
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.NewSim(host.PowerSource(), meter.SimOptions{NoiseStdDev: 0.25, Resolution: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(host, m, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestCollectOfflineAllocs pins CollectOffline's allocations per offline
// sample on largeXeonRig.
func TestCollectOfflineAllocs(t *testing.T) {
	const runs = 5
	ests := make([]*Estimator, runs+1) // AllocsPerRun makes one warm-up call
	for i := range ests {
		ests[i] = largeXeonRig(t)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ests[next].CollectOffline(); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// Every combination of the catalog's types that contains the large
	// type runs the same 8 VMs, so all the samples land in one combo.
	samples := ests[0].Approximator().SampleCount(1 << 2)
	if samples == 0 {
		t.Fatal("no offline samples")
	}
	perSample := allocs / float64(samples)
	t.Logf("%.0f allocations per CollectOffline, %.2f per offline sample", allocs, perSample)
	if perSample > offlineAllocsPerSample {
		t.Fatalf("CollectOffline allocates %.2f times per offline sample, want at most %g", perSample, offlineAllocsPerSample)
	}
}

func TestEstimateEfficiencyAndDummy(t *testing.T) {
	host, est := testRig(t, Config{Seed: 2})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Run VM1a and VM2 under load; VM1b stays stopped (a dummy).
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(2, workload.Constant("half", vm.State{vm.CPU: 0.5})); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 2))
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Method != "exact" {
		t.Fatalf("Method = %q", alloc.Method)
	}
	// Efficiency: Σ Φ = measured − idle, exactly.
	var sum float64
	for _, p := range alloc.PerVM {
		sum += p
	}
	if math.Abs(sum-alloc.DynamicPower) > 1e-9 {
		t.Fatalf("efficiency: sum %g vs dynamic %g", sum, alloc.DynamicPower)
	}
	// Dummy: the stopped VM gets exactly zero.
	if alloc.PerVM[1] != 0 {
		t.Fatalf("stopped VM share = %g, want 0", alloc.PerVM[1])
	}
	// Both running VMs draw positive power.
	if alloc.PerVM[0] <= 0 || alloc.PerVM[2] <= 0 {
		t.Fatalf("running VM shares = %v", alloc.PerVM)
	}
	if alloc.IdlePerVM != nil {
		t.Fatal("IdleNone must not attribute idle power")
	}
}

func TestEstimateSymmetry(t *testing.T) {
	host, est := testRig(t, Config{Seed: 3})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Two identical VMs at the same state must get (near-)equal shares —
	// the Table III fairness property.
	for _, id := range []vm.ID{0, 1} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 1))
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alloc.PerVM[0]-alloc.PerVM[1]) > 1e-9 {
		t.Fatalf("symmetric VMs got %g and %g", alloc.PerVM[0], alloc.PerVM[1])
	}
	// And the Table III headline: each gets 10 W of the 20 W pair.
	if math.Abs(alloc.PerVM[0]-10) > 1.5 {
		t.Fatalf("share = %g, want ~10", alloc.PerVM[0])
	}
}

func TestEstimateEmptyCoalition(t *testing.T) {
	host, est := testRig(t, Config{Seed: 4})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.EmptyCoalition)
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range alloc.PerVM {
		if p != 0 {
			t.Fatalf("empty coalition shares = %v", alloc.PerVM)
		}
	}
	if alloc.DynamicPower != 0 {
		t.Fatalf("DynamicPower = %g", alloc.DynamicPower)
	}
}

// TestEstimateRefusesUncoveredSnapshot pins the input check at every set
// size: a snapshot whose running flags do not cover the set has an
// unknown running set, so Estimate and Interactions refuse it instead of
// billing nobody, and the error names the running flags.
func TestEstimateRefusesUncoveredSnapshot(t *testing.T) {
	host, est := testRig(t, Config{Seed: 4})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	host.SetAll(true)
	host.Advance(1)
	for _, running := range [][]bool{nil, {true, true}, {true, true, true, true}} {
		snap := host.Collect()
		snap.Running = running
		if _, err := est.Estimate(snap, 200); err == nil || !strings.Contains(err.Error(), "Running flags") {
			t.Fatalf("Estimate with %d flags for 3 VMs: error %v", len(running), err)
		}
		if _, err := est.Interactions(snap, 200); err == nil || !strings.Contains(err.Error(), "Running flags") {
			t.Fatalf("Interactions with %d flags for 3 VMs: error %v", len(running), err)
		}
	}
	if _, err := est.Estimate(host.Collect(), 200); err != nil {
		t.Fatal(err)
	}
}

func TestIdleAttributionRules(t *testing.T) {
	for _, rule := range []IdleAttribution{IdleEqual, IdleProportional} {
		host, est := testRig(t, Config{Seed: 5, IdleAttribution: rule})
		if err := est.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		for _, id := range []vm.ID{0, 2} {
			if err := host.Attach(id, workload.FloatPoint()); err != nil {
				t.Fatal(err)
			}
		}
		host.SetCoalition(vm.CoalitionOf(0, 2))
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.IdlePerVM == nil {
			t.Fatalf("%s: IdlePerVM missing", rule)
		}
		var idleSum, total float64
		for i := range alloc.PerVM {
			idleSum += alloc.IdlePerVM[i]
			total += alloc.Total(vm.ID(i))
		}
		if math.Abs(idleSum-est.IdlePower()) > 1e-9 {
			t.Fatalf("%s: idle shares sum %g, want %g", rule, idleSum, est.IdlePower())
		}
		if math.Abs(total-alloc.MeasuredPower) > 1e-9 {
			t.Fatalf("%s: total %g vs measured %g", rule, total, alloc.MeasuredPower)
		}
		if alloc.IdlePerVM[1] != 0 {
			t.Fatalf("%s: stopped VM got idle share %g", rule, alloc.IdlePerVM[1])
		}
		if rule == IdleEqual && math.Abs(alloc.IdlePerVM[0]-alloc.IdlePerVM[2]) > 1e-9 {
			t.Fatalf("equal rule shares differ: %v", alloc.IdlePerVM)
		}
	}
}

func TestRun(t *testing.T) {
	host, est := testRig(t, Config{Seed: 6})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(0, workload.Synthetic{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0))
	count := 0
	startClock := host.Clock()
	if err := est.Run(5, func(a *Allocation) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("Run delivered %d allocations", count)
	}
	if host.Clock() != startClock+5 {
		t.Fatalf("clock advanced %d", host.Clock()-startClock)
	}
	// Early stop.
	count = 0
	if err := est.Run(5, func(a *Allocation) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("early stop delivered %d", count)
	}
}

func TestMeterDropoutRetries(t *testing.T) {
	// A meter with dropouts must not fail collection or estimation: the
	// estimator retries within the tick.
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{{Name: "VM1", Type: 0}})
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := meter.NewSim(host.PowerSource(), meter.SimOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := faults.Wrap(sim, faults.Options{DropoutProb: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m.SetArmed(true)
	est, err := New(host, m, Config{OfflineTicksPerCombo: 60, IdleMeasureTicks: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0))
	host.Advance(1)
	if _, err := est.EstimateTick(); err != nil {
		t.Fatal(err)
	}
	if m.Injected().Dropouts == 0 {
		t.Fatal("no dropouts injected")
	}
}

// mcRig builds and calibrates the BenchmarkEstimateTick mc arm's shape:
// 24 small VMs of a Xeon host on distinct synthetic streams, calibrated
// with every VM busy (40 ticks per combination unless cfg says
// otherwise). 24 groups of one span 2^24 count vectors, past the exact
// budget, and the correction search runs past searchCap, so every tick
// is sampled by Monte Carlo.
func mcRig(t *testing.T, cfg Config) (*hypervisor.Host, *Estimator) {
	t.Helper()
	host, est := symTestRig(t, machine.XeonProfile(), []int{vm.MaxPlayers}, cfg)
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < host.Set().Len(); i++ {
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	startAll(t, host)
	return host, est
}

func TestMonteCarloPathForLargeSets(t *testing.T) {
	host, est := mcRig(t, Config{Seed: 8})
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Method != "montecarlo" || alloc.Prov.TierReason != reasonMCCap {
		t.Fatalf("Method = %q (%s)", alloc.Method, alloc.Prov.TierReason)
	}
	var sum float64
	for _, p := range alloc.PerVM {
		sum += p
	}
	// MC permutation sampling is exactly efficient.
	if math.Abs(sum-alloc.DynamicPower) > 1e-9 {
		t.Fatalf("MC efficiency: %g vs %g", sum, alloc.DynamicPower)
	}
}

// TestMonteCarloStdErrServed pins the uncertainty a Monte-Carlo tick
// serves: Allocation.StdErr is the sampler's per-VM standard error bit
// for bit, and Provenance.MaxStdErrWatts its largest value. Exact ticks
// carry neither.
func TestMonteCarloStdErrServed(t *testing.T) {
	host, est := mcRig(t, Config{Seed: 5})
	for tick := 0; tick < 3; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Prov.Tier != TierMonteCarlo {
			t.Fatalf("tick %d: tier %s", tick, alloc.Prov.Tier)
		}
		snap := host.Collect()
		plan, err := est.ensurePlan()
		if err != nil {
			t.Fatal(err)
		}
		worth, _ := planWorth(plan, runningMask(t, snap), snap.States, alloc.DynamicPower)
		res, err := shapley.MonteCarlo(len(alloc.PerVM), worth, shapley.MCOptions{
			Permutations: shapley.DefaultPermutations, Seed: 5 ^ int64(snap.Tick), Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alloc.StdErr, res.StdErr) {
			t.Fatalf("tick %d: served StdErr %v, sampler %v", tick, alloc.StdErr, res.StdErr)
		}
		var most float64
		for _, se := range res.StdErr {
			most = math.Max(most, se)
		}
		if most <= 0 || alloc.Prov.MaxStdErrWatts != most {
			t.Fatalf("tick %d: MaxStdErrWatts %g, want the largest StdErr %g", tick, alloc.Prov.MaxStdErrWatts, most)
		}
	}

	host, est = testRig(t, Config{Seed: 5})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 1))
	host.Advance(1)
	exact, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if exact.StdErr != nil || exact.Prov.MaxStdErrWatts != 0 {
		t.Fatalf("exact tick: StdErr %v, MaxStdErrWatts %g, want none", exact.StdErr, exact.Prov.MaxStdErrWatts)
	}
}

func TestAuditAxioms(t *testing.T) {
	host, est := testRig(t, Config{Seed: 11})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Two identical VMs at identical states: the approximated game is
	// symmetric by construction (same class aggregation), so the audit
	// must come back clean with a modest tolerance.
	for _, id := range []vm.ID{0, 1} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 1))
	host.Advance(1)
	snap := host.Collect()
	power, err := host.TruePower()
	if err != nil {
		t.Fatal(err)
	}
	report, alloc, err := est.Audit(snap, power, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if alloc == nil || len(alloc.PerVM) != 3 {
		t.Fatal("audit must return the allocation")
	}
	if report.EfficiencyGap != 0 {
		t.Fatalf("efficiency gap = %g", report.EfficiencyGap)
	}
	if len(report.SymmetryViolations) != 0 {
		t.Fatalf("symmetry violations: %v", report.SymmetryViolations)
	}
	if len(report.DummyViolations) != 0 {
		t.Fatalf("dummy violations: %v", report.DummyViolations)
	}
}

func TestApproximatorDiagnostics(t *testing.T) {
	_, est := testRig(t, Config{Seed: 12})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	d, err := est.Approximator().Diags(0b0011)
	if err != nil {
		t.Fatal(err)
	}
	if d.Samples == 0 {
		t.Fatal("diagnostics must record samples")
	}
	if d.MeanPower <= 0 {
		t.Fatalf("MeanPower = %g", d.MeanPower)
	}
	// The approximation is good on its own training data: < 15% rel RMSE.
	if got := d.RelativeRMSE(); got <= 0 || got > 0.15 {
		t.Fatalf("RelativeRMSE = %g", got)
	}
	if _, err := est.Approximator().Diags(0b1000); err == nil {
		t.Fatal("want untrained error")
	}
}

func TestNewWithClassMap(t *testing.T) {
	host, _ := testRig(t, Config{})
	// A class map that merges the catalog's 4 types into 2 classes.
	classes := &vhc.ClassMap{ByType: []int{0, 0, 1, 1}, Classes: 2}
	m, err := meter.Perfect(host.PowerSource())
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(host, m, Config{
		OfflineTicksPerCombo: 60, IdleMeasureTicks: 5, Seed: 1, Classes: classes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Approximator().NumTypes() != 2 {
		t.Fatalf("approximator classes = %d", est.Approximator().NumTypes())
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Online estimation works through the class map.
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0))
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.PerVM[0] <= 0 {
		t.Fatalf("classed allocation = %v", alloc.PerVM)
	}
	// An invalid class map is rejected.
	bad := &vhc.ClassMap{ByType: []int{0, 9, 0, 0}, Classes: 2}
	if _, err := New(host, m, Config{Classes: bad}); err == nil {
		t.Fatal("want invalid-class-map error")
	}
	short := &vhc.ClassMap{ByType: []int{0, 0}, Classes: 1}
	if _, err := New(host, m, Config{Classes: short}); err == nil {
		t.Fatal("want uncovered-catalog error")
	}
}

func TestHostAccessor(t *testing.T) {
	host, est := testRig(t, Config{})
	if est.Host() != host {
		t.Fatal("Host accessor wrong")
	}
}

func TestMeterHardFailurePropagates(t *testing.T) {
	host, _ := testRig(t, Config{})
	boom := errors.New("meter exploded")
	m, err := meter.NewSim(func() (float64, error) { return 0, boom }, meter.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(host, m, Config{OfflineTicksPerCombo: 10, IdleMeasureTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); !errors.Is(err, boom) {
		t.Fatalf("want source error, got %v", err)
	}
}

func TestPermanentDropoutFails(t *testing.T) {
	host, _ := testRig(t, Config{})
	alwaysDrop := meterFunc(func() (meter.Sample, error) {
		return meter.Sample{}, meter.ErrDropout
	})
	est, err := New(host, alwaysDrop, Config{OfflineTicksPerCombo: 10, IdleMeasureTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err == nil {
		t.Fatal("want consecutive-dropout error")
	}
}

// meterFunc adapts a function to meter.Meter.
type meterFunc func() (meter.Sample, error)

func (f meterFunc) Sample() (meter.Sample, error) { return f() }

func TestProportionalIdleDegeneratesToEqual(t *testing.T) {
	// All running VMs idle → zero dynamic shares → the proportional rule
	// degenerates to an equal split.
	host, est := testRig(t, Config{Seed: 13, IdleAttribution: IdleProportional})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Detach the collection workloads so the running VMs truly idle.
	for i := 0; i < host.Set().Len(); i++ {
		if err := host.Attach(vm.ID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 2)) // running but idle
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.IdlePerVM == nil {
		t.Fatal("idle shares missing")
	}
	if math.Abs(alloc.IdlePerVM[0]-alloc.IdlePerVM[2]) > 1e-9 {
		t.Fatalf("degenerate proportional shares differ: %v", alloc.IdlePerVM)
	}
	if alloc.IdlePerVM[0] <= 0 {
		t.Fatal("running VMs must share the idle power")
	}
	if alloc.IdlePerVM[1] != 0 {
		t.Fatal("stopped VM must get no idle share")
	}
}

func TestInteractionsFromApproximatedGame(t *testing.T) {
	host, est := testRig(t, Config{Seed: 41})
	snap := host.Collect()
	if _, err := est.Interactions(snap, 150); !errors.Is(err, ErrUntrained) {
		t.Fatalf("want ErrUntrained, got %v", err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Use a cross-type pair (VM1a + VM2): their singleton worths come
	// from combos the offline phase trained in isolation, so the
	// approximated interaction is reliably negative. (A same-type pair's
	// singletons are extrapolated from pair-trained data — the headline
	// experiment's known bias — and can flip sign.)
	for _, id := range []vm.ID{0, 2} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 2))
	host.Advance(1)
	snap = host.Collect()
	power, err := host.TruePower()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := est.Interactions(snap, power)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("matrix size = %d", len(idx))
	}
	// The co-located busy pair interferes; the stopped VM1b is a dummy
	// with zero interactions.
	if idx[0][2] >= 0 {
		t.Fatalf("busy pair interaction = %g, want < 0", idx[0][2])
	}
	if idx[0][1] != 0 || idx[2][1] != 0 {
		t.Fatalf("stopped VM interactions = %g, %g, want 0", idx[0][1], idx[2][1])
	}
}

func TestConcurrentEstimate(t *testing.T) {
	// After training, Estimate on a fixed snapshot is read-only and must
	// be safe to call from many goroutines (parallel replay/analytics).
	host, est := testRig(t, Config{Seed: 31})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 2))
	host.Advance(1)
	snap := host.Collect()
	power, err := host.TruePower()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := est.Estimate(snap, power)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				alloc, err := est.Estimate(snap, power)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range alloc.PerVM {
					if alloc.PerVM[j] != ref.PerVM[j] {
						t.Errorf("concurrent estimate diverged at vm %d", j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEstimateConcurrentWithEstimateTick replays each tick on worker
// goroutines while the tick goroutine serves it, from before the first
// plan is built: every replay must equal its live tick — same tier, same
// shares bit for bit — before and after the running set changes.
func TestEstimateConcurrentWithEstimateTick(t *testing.T) {
	host, est := symTestRig(t, machine.XeonProfile(), []int{3, 1}, Config{Seed: 9})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	attachClassWorkloads(t, host, []workload.Generator{
		workload.Synthetic{Seed: 5},
		workload.Constant("steady", vm.State{vm.CPU: 0.4, vm.Memory: 0.2, vm.DiskIO: 0.1}),
	})
	startAll(t, host)

	const ticks = 12
	type job struct {
		tick  int
		snap  hypervisor.Snapshot
		power float64
	}
	jobs := make(chan job, ticks) // one slot per tick: the sender never blocks
	replays := make([]*Allocation, ticks)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				alloc, err := est.Estimate(j.snap, j.power)
				if err != nil {
					t.Errorf("tick %d: Estimate: %v", j.tick, err)
					continue
				}
				replays[j.tick] = alloc
			}
		}()
	}
	live := make([]*Allocation, ticks)
	for i := 0; i < ticks; i++ {
		if i == ticks/2 {
			if err := host.Stop(0); err != nil {
				t.Fatal(err)
			}
		}
		host.Advance(1)
		power, err := host.TruePower()
		if err != nil {
			t.Fatal(err)
		}
		jobs <- job{tick: i, snap: host.Collect(), power: power}
		if live[i], err = est.EstimateTick(); err != nil {
			t.Fatal(err)
		}
	}
	close(jobs)
	wg.Wait()

	tiers := map[string]bool{}
	for i, got := range replays {
		if got == nil {
			t.Fatalf("tick %d: no replay", i)
		}
		want := live[i]
		tiers[want.Prov.Tier] = true
		if got.Prov.Tier != want.Prov.Tier || !reflect.DeepEqual(got.PerVM, want.PerVM) {
			t.Fatalf("tick %d: replay (%s) %v != live (%s) %v",
				i, got.Prov.Tier, got.PerVM, want.Prov.Tier, want.PerVM)
		}
	}
	if len(tiers) != 1 || !tiers[TierExact] {
		t.Fatalf("tiers served: %v, want the exact tier", tiers)
	}
}

func TestParallelismDeterministicAllocations(t *testing.T) {
	// The Parallelism knob may change wall-clock time only: for a fixed
	// seed and snapshot the allocation must be bit-for-bit identical at
	// any worker count (the sampler's decomposition is fixed; see
	// internal/shapley/parallel.go). Exercise both the exact tier and, on
	// a host whose correction search runs past its cap, the Monte-Carlo
	// tier, each also through the legacyEstimate oracle.
	for _, tc := range []struct {
		name   string
		cfg    Config
		mc     bool
		legacy bool
	}{
		{"exact", Config{Seed: 12}, false, false},
		{"exact-legacy", Config{Seed: 12}, false, true},
		{"montecarlo", Config{Seed: 12}, true, false},
		{"montecarlo-legacy", Config{Seed: 12}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			estimate := func(parallelism int) []float64 {
				cfg := tc.cfg
				cfg.Parallelism = parallelism
				var host *hypervisor.Host
				var est *Estimator
				if tc.mc {
					host, est = mcRig(t, cfg)
				} else {
					host, est = testRig(t, cfg)
					if err := est.CollectOffline(); err != nil {
						t.Fatal(err)
					}
					for _, id := range []vm.ID{0, 1, 2} {
						if err := host.Attach(id, workload.FloatPoint()); err != nil {
							t.Fatal(err)
						}
					}
					host.SetCoalition(vm.CoalitionOf(0, 1, 2))
				}
				host.Advance(1)
				alloc, err := est.EstimateTick()
				if err != nil {
					t.Fatal(err)
				}
				want := TierExact
				if tc.mc {
					want = TierMonteCarlo
				}
				if alloc.Prov.Tier != want {
					t.Fatalf("tier %s, want %s", alloc.Prov.Tier, want)
				}
				if tc.legacy {
					alloc = legacyEstimate(t, est, host.Collect(), alloc.MeasuredPower)
				}
				return alloc.PerVM
			}
			ref := estimate(2)
			for _, p := range []int{4, 7, -1} {
				got := estimate(p)
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("parallelism %d: PerVM[%d] = %.17g, want %.17g", p, i, got[i], ref[i])
					}
				}
			}
			// Parallelism 1 runs the same decomposition on the calling
			// goroutine, so even the serial default is bit-exact.
			serial := estimate(1)
			for i := range ref {
				if serial[i] != ref[i] {
					t.Fatalf("serial PerVM[%d] = %.17g, parallel %.17g", i, serial[i], ref[i])
				}
			}
		})
	}
}

func TestIdleAttributionString(t *testing.T) {
	if IdleNone.String() != "none" || IdleEqual.String() != "equal" || IdleProportional.String() != "proportional" {
		t.Fatal("attribution names wrong")
	}
	if IdleAttribution(9).String() == "" {
		t.Fatal("unknown attribution must render")
	}
}
