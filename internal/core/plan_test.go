package core

import (
	"fmt"
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
// The mask path's slot-table form (a SymEval bound by ResetMask, reused
// across trials as the tick loop reuses it) must match as well. Bit
// equality trivially satisfies the ≤1e-12 acceptance bound.
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
			plan := est.ensurePlan()
			if plan == nil {
				t.Fatal("plan must compile for a trained estimator")
			}
			n := est.host.Set().Len()
			rng := rand.New(rand.NewSource(41))
			quant := func() float64 { return float64(rng.Intn(101)) / 100 }
			var ev vhc.SymEval
			for trial := 0; trial < 400; trial++ {
				running := vm.Coalition(rng.Intn(1 << uint(n)))
				states := make([]vm.State, n)
				for i := range states {
					// Stopped VMs keep random garbage states on purpose:
					// both worths must mask them out as dummies.
					states[i] = vm.State{quant(), quant(), quant()}
				}
				dyn := rng.Float64() * 200
				snap := hypervisor.Snapshot{Tick: trial, Coalition: running, States: states}
				legacy, legacyErr := est.buildWorth(snap, dyn)
				planned, planErr := planWorth(plan, nil, running, states, dyn)
				if err := ev.ResetMask(plan, running, states); err != nil {
					t.Fatal(err)
				}
				tabled, tabledErr := planWorth(plan, &ev, running, states, dyn)
				for s := vm.Coalition(0); s < 1<<uint(n); s++ {
					lw, pw, tw := legacy(s), planned(s), tabled(s)
					if pw != lw || tw != lw {
						t.Fatalf("trial %d running=%s: worth(%s) plan=%.17g slot tables=%.17g legacy=%.17g",
							trial, running, s, pw, tw, lw)
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
				if err := tabledErr(); err != nil {
					t.Fatalf("trial %d: slot-table worth error: %v", trial, err)
				}
			}
		})
	}
}

// planScenario drives one or more hosts in lock-step through the phases
// that exercise every arm of the incremental recurrence: steady constant
// states (dirty = 0, full verbatim reuse), per-tick random states (partial
// dirty sets), a running-set change (forced full retabulation) and a
// recovery phase. step is called once per tick after every host advanced.
func planScenario(t *testing.T, hosts []*hypervisor.Host, step func(tick int)) {
	t.Helper()
	for _, host := range hosts {
		if err := host.Attach(0, workload.Constant("steady", vm.State{vm.CPU: 0.5, vm.Memory: 0.25, vm.DiskIO: 0.1})); err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(1, workload.Synthetic{Seed: 5}); err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(2, workload.Synthetic{Seed: 9, IdleProb: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	tick := 0
	phase := func(coalition vm.Coalition, ticks int) {
		for _, host := range hosts {
			host.SetCoalition(coalition)
		}
		for i := 0; i < ticks; i++ {
			for _, host := range hosts {
				host.Advance(1)
			}
			tick++
			step(tick)
		}
	}
	phase(vm.CoalitionOf(0), 8)        // constant states: dirty = 0 reuse
	phase(vm.CoalitionOf(0, 1, 2), 12) // random states: partial dirty sets
	phase(vm.CoalitionOf(0, 2), 8)     // running-set change: full retabulation
	phase(vm.CoalitionOf(0, 1, 2), 8)  // recovery
}

// TestPlanEstimateTickMatchesLegacy runs the full scenario on two
// identically seeded rigs — one on the compiled-plan path, one forced onto
// the legacy path via DisableWorthPlan — and demands bit-identical
// allocations every tick. This pins the incremental cross-tick reuse
// against a from-scratch tabulation under steady states, dirty subsets and
// coalition changes.
func TestPlanEstimateTickMatchesLegacy(t *testing.T) {
	for _, par := range []int{1, 4} {
		cfg := Config{Seed: 3, Parallelism: par}
		legacyCfg := cfg
		legacyCfg.DisableWorthPlan = true
		hostP, estP := testRig(t, cfg)
		hostL, estL := testRig(t, legacyCfg)
		if err := estP.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		if err := estL.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		planScenario(t, []*hypervisor.Host{hostP, hostL}, func(tick int) {
			allocP, err := estP.EstimateTick()
			if err != nil {
				t.Fatalf("par %d tick %d: plan estimate: %v", par, tick, err)
			}
			allocL, err := estL.EstimateTick()
			if err != nil {
				t.Fatalf("par %d tick %d: legacy estimate: %v", par, tick, err)
			}
			// Provenance names the path that served the tick, so it differs
			// between the rigs by construction; the equivalence claim is
			// about the allocation itself.
			allocP.Prov, allocL.Prov = Provenance{}, Provenance{}
			if !reflect.DeepEqual(allocP, allocL) {
				t.Fatalf("par %d tick %d: plan %+v != legacy %+v", par, tick, allocP, allocL)
			}
		})
	}
}

// TestPlanTailSlotMatchesLegacy raises ExactMaxPlayers to 17 so the mask
// path solves a host whose 17 VMs share one VHC class. That slot's
// subset-sum table stops at vhc's per-slot budget of 2^16 entries, and
// its last VM is added member by member as a tail class. Every tick must
// equal the legacy path's allocation, across moving states and a
// running-set change.
func TestPlanTailSlotMatchesLegacy(t *testing.T) {
	const n = 17
	rig := func(cfg Config) (*hypervisor.Host, *Estimator) {
		mach, err := machine.New(machine.XeonProfile(), machine.Pack)
		if err != nil {
			t.Fatal(err)
		}
		vms := make([]vm.VM, n)
		for i := range vms {
			vms[i] = vm.VM{Name: fmt.Sprintf("vm%02d", i), Type: 0}
		}
		set, err := vm.NewSet(vm.PaperCatalog(), vms)
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
		est, err := New(host, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := est.CollectOffline(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		return host, est
	}
	// DisableSymmetry keeps a tick whose states happen to collapse on
	// the mask path too.
	cfg := Config{Seed: 5, ExactMaxPlayers: n, DisableSymmetry: true, OfflineTicksPerCombo: 20, IdleMeasureTicks: 3}
	legacyCfg := cfg
	legacyCfg.DisableWorthPlan = true
	hostP, estP := rig(cfg)
	hostL, estL := rig(legacyCfg)
	for tick, running := range []vm.Coalition{vm.GrandCoalition(n), vm.GrandCoalition(n), vm.GrandCoalition(n).Without(3)} {
		for _, host := range []*hypervisor.Host{hostP, hostL} {
			host.SetCoalition(running)
			host.Advance(1)
		}
		allocP, err := estP.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: plan estimate: %v", tick, err)
		}
		allocL, err := estL.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: legacy estimate: %v", tick, err)
		}
		if allocP.Prov.Tier != TierMaskExact {
			t.Fatalf("tick %d: tier %s, want the mask path", tick, allocP.Prov.Tier)
		}
		allocP.Prov, allocL.Prov = Provenance{}, Provenance{}
		if !reflect.DeepEqual(allocP, allocL) {
			t.Fatalf("tick %d: plan %+v != legacy %+v", tick, allocP, allocL)
		}
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
		planScenario(t, []*hypervisor.Host{host}, func(tick int) {
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

// TestPlanMonteCarloMatchesLegacy forces the Monte-Carlo arm (lowered
// ExactMaxPlayers) so the plan-backed worth feeds the permutation sampler;
// with a fixed seed the result must match the legacy worth bit for bit.
func TestPlanMonteCarloMatchesLegacy(t *testing.T) {
	cfg := Config{Seed: 11, ExactMaxPlayers: 2, MCPermutations: 64}
	legacyCfg := cfg
	legacyCfg.DisableWorthPlan = true
	hostP, estP := testRig(t, cfg)
	hostL, estL := testRig(t, legacyCfg)
	if err := estP.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if err := estL.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for _, host := range []*hypervisor.Host{hostP, hostL} {
		if err := host.Attach(1, workload.Synthetic{Seed: 2}); err != nil {
			t.Fatal(err)
		}
		host.SetCoalition(vm.CoalitionOf(0, 1, 2))
	}
	for tick := 0; tick < 6; tick++ {
		hostP.Advance(1)
		hostL.Advance(1)
		allocP, err := estP.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		allocL, err := estL.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if allocP.Method != "montecarlo" {
			t.Fatalf("tick %d: method %q, want montecarlo", tick, allocP.Method)
		}
		allocP.Prov, allocL.Prov = Provenance{}, Provenance{}
		if !reflect.DeepEqual(allocP, allocL) {
			t.Fatalf("tick %d: plan MC %+v != legacy MC %+v", tick, allocP, allocL)
		}
	}
}

// TestPlanMetricsCounters wires the package metrics and checks the
// scenario's cache behaviour is observable: every exact tick is a plan
// tick, steady ticks reuse coalitions verbatim, and the running-set
// changes force full retabulations.
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
	planScenario(t, []*hypervisor.Host{host}, func(int) {
		if _, err := est.EstimateTick(); err != nil {
			t.Fatal(err)
		}
		ticks++
	})
	if got := m.PlanTicks.Value(); got != uint64(ticks) {
		t.Fatalf("PlanTicks = %d, want %d", got, ticks)
	}
	if m.PlanCompiles.Value() != 1 {
		t.Fatalf("PlanCompiles = %d, want 1 (one model epoch)", m.PlanCompiles.Value())
	}
	full := m.PlanFullTabulations.Value()
	// First tick plus the three coalition changes retabulate in full.
	if full < 4 || full == uint64(ticks) {
		t.Fatalf("PlanFullTabulations = %d over %d ticks, want >= 4 and < ticks", full, ticks)
	}
	if m.PlanCoalitionsReused.Value() == 0 {
		t.Fatal("steady phases must reuse coalitions verbatim")
	}
	if m.PlanCoalitionsEvaluated.Value() == 0 {
		t.Fatal("dirty phases must re-evaluate coalitions")
	}
}
