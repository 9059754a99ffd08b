package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// TestPlanWorthMatchesLegacy is the plan worth property: over randomized
// coalitions, states and class maps, planWorth must reproduce legacyWorth
// (ClassedFeaturesInto's member sums priced by Plan.Worth) bit for bit on
// every one of the 2^n masks — including stopped-VM dummies (masks
// reaching outside the running set) and the measured-power override for
// the running grand coalition.
func TestPlanWorthMatchesLegacy(t *testing.T) {
	merged := &vhc.ClassMap{ByType: []int{0, 0, 1, 1}, Classes: 2}
	for _, tc := range []struct {
		name    string
		classes *vhc.ClassMap
	}{
		{"identity-classes", nil},
		{"merged-classes", merged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, est := testRig(t, Config{Seed: 7, Classes: tc.classes})
			if err := est.CollectOffline(); err != nil {
				t.Fatal(err)
			}
			plan, err := est.ensurePlan()
			if err != nil {
				t.Fatalf("plan must compile for a trained estimator: %v", err)
			}
			n := est.host.Set().Len()
			rng := rand.New(rand.NewSource(41))
			quant := func() float64 { return float64(rng.Intn(101)) / 100 }
			for trial := 0; trial < 400; trial++ {
				running := vm.Coalition(rng.Intn(1 << uint(n)))
				states := make([]vm.State, n)
				for i := range states {
					// Stopped VMs keep random garbage states on purpose:
					// both worths must mask them out as dummies.
					states[i] = vm.State{quant(), quant(), quant()}
				}
				dyn := rng.Float64() * 200
				legacy, legacyErr := legacyWorth(est, plan, running, states, dyn)
				planned, planErr := planWorth(plan, running, states, dyn)
				for s := vm.Coalition(0); s < 1<<uint(n); s++ {
					if lw, pw := legacy(s), planned(s); pw != lw {
						t.Fatalf("trial %d running=%s: worth(%s) plan=%.17g legacy=%.17g",
							trial, running, s, pw, lw)
					}
				}
				if !running.IsEmpty() && planned(running) != dyn {
					t.Fatalf("trial %d: grand coalition must return measured dyn", trial)
				}
				if err := legacyErr(); err != nil {
					t.Fatalf("trial %d: legacy worth error: %v", trial, err)
				}
				if err := planErr(); err != nil {
					t.Fatalf("trial %d: plan worth error: %v", trial, err)
				}
			}
		})
	}
}

// planScenario drives a host through steady constant states, per-tick
// random states, a running-set change and a recovery phase. step is
// called once per tick after the host advanced.
func planScenario(t *testing.T, host *hypervisor.Host, step func(tick int)) {
	t.Helper()
	if err := host.Attach(0, workload.Constant("steady", vm.State{vm.CPU: 0.5, vm.Memory: 0.25, vm.DiskIO: 0.1})); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(1, workload.Synthetic{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(2, workload.Synthetic{Seed: 9, IdleProb: 0.2}); err != nil {
		t.Fatal(err)
	}
	tick := 0
	phase := func(coalition vm.Coalition, ticks int) {
		host.SetCoalition(coalition)
		for i := 0; i < ticks; i++ {
			host.Advance(1)
			tick++
			step(tick)
		}
	}
	phase(vm.CoalitionOf(0), 8)        // constant states
	phase(vm.CoalitionOf(0, 1, 2), 12) // moving states
	phase(vm.CoalitionOf(0, 2), 8)     // running-set change
	phase(vm.CoalitionOf(0, 1, 2), 8)  // recovery
}

// TestPlanEstimateTickMatchesLegacy runs the full scenario and demands
// that every EstimateTick allocation match the legacy route's (the
// legacyEstimate oracle): every share to 1e-12 of the measured power
// and every other field exactly, under steady states, moving states and
// coalition changes, with a noisy meter.
func TestPlanEstimateTickMatchesLegacy(t *testing.T) {
	for _, par := range []int{1, 4} {
		host, est := testRig(t, Config{Seed: 3, Parallelism: par})
		if err := est.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		noisy, err := meter.NewSim(host.PowerSource(), meter.SimOptions{NoiseStdDev: 0.25, Resolution: 0.1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := est.SetMeter(noisy); err != nil {
			t.Fatal(err)
		}
		planScenario(t, host, func(tick int) {
			alloc, err := est.EstimateTick()
			if err != nil {
				t.Fatalf("par %d tick %d: plan estimate: %v", par, tick, err)
			}
			want := legacyEstimate(t, est, host.Collect(), alloc.MeasuredPower)
			checkAgainst(t, fmt.Sprintf("par %d tick %d", par, tick), alloc.PerVM, want.PerVM, math.Max(1, alloc.MeasuredPower))
			// The oracle records no provenance or groups; the remaining
			// fields must match exactly.
			alloc.Prov, alloc.SymmetryClasses, alloc.PerVM, want.PerVM = Provenance{}, 0, nil, nil
			if !reflect.DeepEqual(alloc, want) {
				t.Fatalf("par %d tick %d: plan %+v != legacy %+v", par, tick, alloc, want)
			}
		})
	}
}

// TestPlanSeventeenDistinctVMsMatchLegacy serves a 17-VM one-class host
// whose VMs all hold distinct states — 2^17 count vectors, past the 2^16
// masks the replaced mask tier enumerated — with the exact tier, and
// every tick must match the legacy route's textbook sum to 1e-12 of the
// measured power, across moving states and a running-set change.
func TestPlanSeventeenDistinctVMsMatchLegacy(t *testing.T) {
	const n = 17
	host, est := symTestRig(t, machine.XeonProfile(), []int{n}, Config{Seed: 5, OfflineTicksPerCombo: 20})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for tick, running := range []vm.Coalition{vm.GrandCoalition(n), vm.GrandCoalition(n), vm.GrandCoalition(n).Without(3)} {
		host.SetCoalition(running)
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: plan estimate: %v", tick, err)
		}
		if alloc.Prov.Tier != TierExact {
			t.Fatalf("tick %d: tier %s, want the exact tier", tick, alloc.Prov.Tier)
		}
		want := legacyEstimate(t, est, host.Collect(), alloc.MeasuredPower)
		checkAgainst(t, fmt.Sprintf("tick %d", tick), alloc.PerVM, want.PerVM, math.Max(1, alloc.MeasuredPower))
	}
}

// TestPlanParallelismDeepEqual pins the acceptance criterion directly: the
// plan-based EstimateTick sequence is DeepEqual-deterministic between
// parallelism 1 and NumCPU (and the "all cores" default) across a
// scenario exercising reuse, dirty sets and coalition changes.
func TestPlanParallelismDeepEqual(t *testing.T) {
	run := func(par int) []*Allocation {
		host, est := testRig(t, Config{Seed: 3, Parallelism: par})
		if err := est.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		var out []*Allocation
		planScenario(t, host, func(tick int) {
			alloc, err := est.EstimateTick()
			if err != nil {
				t.Fatalf("par %d tick %d: %v", par, tick, err)
			}
			out = append(out, alloc)
		})
		return out
	}
	ref := run(1)
	for _, par := range []int{runtime.NumCPU(), -1} {
		got := run(par)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("parallelism %d: allocation sequence differs from parallelism 1", par)
		}
	}
}

// TestPlanMonteCarloMatchesLegacy serves a host whose correction search
// runs past its cap, so the plan-backed worth feeds the permutation
// sampler; with a fixed seed the result must match the legacy route bit
// for bit.
func TestPlanMonteCarloMatchesLegacy(t *testing.T) {
	host, est := mcRig(t, Config{Seed: 11})
	for tick := 0; tick < 6; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Method != "montecarlo" {
			t.Fatalf("tick %d: method %q, want montecarlo", tick, alloc.Method)
		}
		want := legacyEstimate(t, est, host.Collect(), alloc.MeasuredPower)
		alloc.Prov = Provenance{}
		if !reflect.DeepEqual(alloc, want) {
			t.Fatalf("tick %d: plan MC %+v != legacy MC %+v", tick, alloc, want)
		}
	}
}

// TestPlanCompileErrorFallsToPolicy pins what a plan that cannot be
// built does now that no route bypasses the plan: every tick and every
// Estimate returns the error, before and after retraining.
func TestPlanCompileErrorFallsToPolicy(t *testing.T) {
	host, est := testRig(t, Config{Seed: 3})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// A class map whose class count disagrees with the approximator's is
	// an input NewPlan rejects; core.New never builds one.
	est.classes = &vhc.ClassMap{ByType: make([]int, len(est.classes.ByType)), Classes: 1}
	host.SetCoalition(vm.CoalitionOf(0, 1))
	tick := func() {
		t.Helper()
		host.Advance(1)
		if alloc, err := est.EstimateTick(); !errors.Is(err, vhc.ErrPlan) {
			t.Fatalf("tick served %+v, error %v: want vhc.ErrPlan", alloc, err)
		}
	}
	for i := 0; i < 3; i++ {
		tick()
	}
	if _, err := est.Estimate(host.Collect(), 150); !errors.Is(err, vhc.ErrPlan) {
		t.Fatalf("Estimate error %v, want vhc.ErrPlan", err)
	}
	if err := est.approx.Train(); err != nil {
		t.Fatal(err)
	}
	tick()
}

// TestPlanMetricsCounters wires the package metrics and checks the
// scenario is observable: one model-residual observation per
// EstimateTick tick. Estimate calls (replays, Audit) are not ticks and
// leave the metrics alone.
func TestPlanMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { Instrument(nil) })
	m := metrics()

	host, est := testRig(t, Config{Seed: 3})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	ticks := 0
	var sum float64
	planScenario(t, host, func(int) {
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		ticks++
		sum += alloc.Prov.ModelResidualRel
		if _, err := est.Estimate(host.Collect(), alloc.MeasuredPower); err != nil {
			t.Fatal(err)
		}
		if _, _, err := est.Audit(host.Collect(), alloc.MeasuredPower, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
	if got := m.ModelResidual.Count(); got != uint64(ticks) {
		t.Fatalf("ModelResidual counted %d ticks, want %d", got, ticks)
	}
	if got := m.ModelResidual.Sum(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("ModelResidual sum %g, want %g", got, sum)
	}
}

// TestPlanBuildAllocs pins that building a plan copies nothing of the
// model: on largeXeonRig, whose 1,600 offline samples fall on about as
// many table keys, NewPlan allocates a constant few times.
func TestPlanBuildAllocs(t *testing.T) {
	est := largeXeonRig(t)
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if samples := est.approx.SampleCount(1 << 2); samples < 1000 {
		t.Fatalf("%d offline samples, want a table of the calibration's size", samples)
	}
	set := est.host.Set()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := vhc.NewPlan(set, est.classes, est.approx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("NewPlan allocates %v times, want at most 4", allocs)
	}
}

// forceSubKey adds a sample at the features of running's proper
// sub-coalition sub, 50 W off its current worth, without training.
func forceSubKey(t *testing.T, est *Estimator, snap hypervisor.Snapshot, sub vm.Coalition) {
	t.Helper()
	plan, err := est.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	var feat [vhc.MaxFeatureLen]float64
	combo, feats, err := vhc.ClassedFeaturesInto(est.host.Set(), flagsOf(sub, len(snap.States)), snap.States, est.classes, &feat)
	if err != nil {
		t.Fatal(err)
	}
	v, err := plan.Worth(combo, &feat)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.approx.AddSample(combo, feats, v+50); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports whether two share vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSamplesReachSharesOnlyThroughTrain pins that a sample reaches the
// served shares through Train alone: after calibration, a sample keyed at
// a proper sub-coalition of the running set leaves EstimateTick's
// allocation bit-identical until Train publishes it, and moves the
// shares after.
func TestSamplesReachSharesOnlyThroughTrain(t *testing.T) {
	host, est := testRig(t, Config{Seed: 6})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 1, 2))
	host.Advance(1)
	before, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	forceSubKey(t, est, host.Collect(), vm.CoalitionOf(0, 2))
	untrained, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(untrained, before) || !sameBits(untrained.PerVM, before.PerVM) {
		t.Fatalf("an untrained sample moved the tick: %v, want %v", untrained.PerVM, before.PerVM)
	}
	if err := est.approx.Train(); err != nil {
		t.Fatal(err)
	}
	trained, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if sameBits(trained.PerVM, before.PerVM) {
		t.Fatalf("Train published the sample but the shares %v did not move", trained.PerVM)
	}
}

// TestPlanFollowsGrowingSet pins that the set can grow without telling
// the estimator: after Host.AddVM, Attach and Start on a calibrated
// host, the next EstimateTick and Estimate serve every VM and match the
// textbook sum over the new plan's game to 1e-12 of the worth scale.
func TestPlanFollowsGrowingSet(t *testing.T) {
	host, est := testRig(t, Config{Seed: 8})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 1, 2))
	host.Advance(1)
	if _, err := est.EstimateTick(); err != nil {
		t.Fatal(err)
	}
	id, err := host.AddVM(vm.VM{Name: "VM1c", Type: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(id, workload.Synthetic{Seed: 77}); err != nil {
		t.Fatal(err)
	}
	if err := host.Start(id); err != nil {
		t.Fatal(err)
	}
	host.Advance(1)
	const n = 4
	live, err := est.EstimateTick()
	if err != nil {
		t.Fatalf("tick after AddVM: %v", err)
	}
	snap := host.Collect()
	replay, err := est.Estimate(snap, live.MeasuredPower)
	if err != nil {
		t.Fatalf("Estimate after AddVM: %v", err)
	}
	plan, err := est.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumVMs() != n || len(live.PerVM) != n || len(replay.PerVM) != n {
		t.Fatalf("plan of %d VMs, tick of %d, replay of %d: want %d", plan.NumVMs(), len(live.PerVM), len(replay.PerVM), n)
	}
	want, scale := textbookShares(t, plan, runningMask(t, snap), snap.States, live.DynamicPower)
	checkAgainst(t, "tick", live.PerVM, want, scale)
	checkAgainst(t, "replay", replay.PerVM, want, scale)
	if live.PerVM[id] == 0 {
		t.Fatal("the added VM was served 0 W")
	}
}

// TestModelPublicationAtomic replays one tick on three goroutines while
// the test goroutine adds a sample and trains: every replay must equal
// the old model's allocation or the new model's, bit for bit, and each
// goroutine's replay after Train the new one's.
func TestModelPublicationAtomic(t *testing.T) {
	host, est := testRig(t, Config{Seed: 6})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 1, 2))
	host.Advance(1)
	snap := host.Collect()
	power, err := host.TruePower()
	if err != nil {
		t.Fatal(err)
	}
	old, err := est.Estimate(snap, power)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 3
	stop := make(chan struct{})
	var started, done sync.WaitGroup
	replays := make([][]*Allocation, workers)
	for w := 0; w < workers; w++ {
		started.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			for {
				stopped := false
				select {
				case <-stop:
					stopped = true
				default:
				}
				alloc, err := est.Estimate(snap, power)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					if len(replays[w]) == 0 {
						started.Done()
					}
					return
				}
				replays[w] = append(replays[w], alloc)
				if len(replays[w]) == 1 {
					started.Done()
				}
				if stopped {
					return
				}
			}
		}(w)
	}
	started.Wait()
	forceSubKey(t, est, snap, vm.CoalitionOf(0, 2))
	trainErr := est.approx.Train()
	close(stop)
	done.Wait()
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	fresh, err := est.Estimate(snap, power)
	if err != nil {
		t.Fatal(err)
	}
	if sameBits(fresh.PerVM, old.PerVM) {
		t.Fatal("the new model serves the old shares; the test cannot tell them apart")
	}
	olds, news := 0, 0
	for w, rs := range replays {
		for i, r := range rs {
			isOld := reflect.DeepEqual(r, old) && sameBits(r.PerVM, old.PerVM)
			isNew := reflect.DeepEqual(r, fresh) && sameBits(r.PerVM, fresh.PerVM)
			if !isOld && !isNew || i == len(rs)-1 && !isNew {
				t.Fatalf("worker %d replay %d of %d: %v, want old %v or new %v (the last one new)",
					w, i, len(rs), r.PerVM, old.PerVM, fresh.PerVM)
			}
			if isOld {
				olds++
			} else {
				news++
			}
		}
	}
	t.Logf("%d replays of the old model, %d of the new", olds, news)
}
