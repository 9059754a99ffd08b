package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// TestPlanWorthMatchesBuildWorth is the compiled-plan worth property: over
// randomized coalitions, states and class maps, the plan-backed worth must
// reproduce the legacy buildWorth bit for bit on every one of the 2^n
// masks — including stopped-VM dummies (masks reaching outside the running
// set) and the measured-power override for the running grand coalition.
func TestPlanWorthMatchesBuildWorth(t *testing.T) {
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
				legacy, legacyErr := est.buildWorth(running, states, dyn)
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

// TestPlanCompileErrorFallsToPolicy pins what a failed plan compile
// does now that no route bypasses the plan: every tick returns the
// compile error, and each model epoch gets one compile attempt.
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
	if compiles, errs := est.PlanCompileStats(); compiles != 0 || errs != 1 {
		t.Fatalf("compiles %d, errors %d: want one failed attempt for the epoch", compiles, errs)
	}
	if err := est.approx.Train(); err != nil {
		t.Fatal(err)
	}
	tick()
	if compiles, errs := est.PlanCompileStats(); compiles != 0 || errs != 2 {
		t.Fatalf("after retraining: compiles %d, errors %d, want a second attempt", compiles, errs)
	}
}

// TestPlanMetricsCounters wires the package metrics and checks the
// scenario is observable: one plan compile for the one model epoch, and
// one model-residual observation per EstimateTick tick. Estimate calls
// (replays, Audit) are not ticks and leave the metrics alone.
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
	if m.PlanCompiles.Value() != 1 {
		t.Fatalf("PlanCompiles = %d, want 1 (one model epoch)", m.PlanCompiles.Value())
	}
	if got := m.ModelResidual.Count(); got != uint64(ticks) {
		t.Fatalf("ModelResidual counted %d ticks, want %d", got, ticks)
	}
	if got := m.ModelResidual.Sum(); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("ModelResidual sum %g, want %g", got, sum)
	}
}
