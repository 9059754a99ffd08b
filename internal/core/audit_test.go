package core

import (
	"math"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/obs"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// auditRig is testRig plus calibration and a running coalition, the
// state an online auditor actually sees.
func auditRig(t *testing.T, cfg Config) (*hypervisor.Host, *Estimator) {
	t.Helper()
	host, est := testRig(t, cfg)
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	if err := host.Attach(2, workload.Constant("half", vm.State{vm.CPU: 0.5})); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 2))
	return host, est
}

func TestAuditCleanTicksNoViolations(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { Instrument(nil) })

	host, est := auditRig(t, Config{Seed: 11})
	var violations []AuditViolation
	est.SetAuditor(NewAuditor(AuditConfig{DeepEvery: 3}, func(v AuditViolation) {
		violations = append(violations, v)
	}))

	const ticks = 9
	for i := 0; i < ticks; i++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Prov.Tier == "" {
			t.Fatal("audited tick has no tier in its provenance")
		}
		if alloc.Prov.EfficiencyResidualWatts > 1e-6 {
			t.Fatalf("tick %d: residual %g W", i, alloc.Prov.EfficiencyResidualWatts)
		}
		if alloc.Prov.AuditViolations != 0 {
			t.Fatalf("tick %d: %d violations on a clean tick", i, alloc.Prov.AuditViolations)
		}
		deepTick := (i+1)%3 == 0
		if alloc.Prov.DeepChecked != deepTick {
			t.Fatalf("tick %d: DeepChecked = %v, want %v", i, alloc.Prov.DeepChecked, deepTick)
		}
		if deepTick && alloc.Prov.DeepMaxDeltaWatts > 1e-9 {
			t.Fatalf("tick %d: deep delta %g W", i, alloc.Prov.DeepMaxDeltaWatts)
		}
	}
	if len(violations) != 0 {
		t.Fatalf("clean run produced violations: %+v", violations)
	}
	m := metrics()
	if got := m.AuditChecks.Value(); got != ticks {
		t.Fatalf("audit checks = %d, want %d", got, ticks)
	}
	if got := m.AuditDeepChecks.Value(); got != ticks/3 {
		t.Fatalf("deep checks = %d, want %d", got, ticks/3)
	}
	if m.AuditViolations.Value() != 0 || m.AuditDeepMismatches.Value() != 0 {
		t.Fatalf("violation counters moved: %d/%d",
			m.AuditViolations.Value(), m.AuditDeepMismatches.Value())
	}
}

// TestAuditDetectsBrokenAllocations feeds the cheap per-tick checks
// hand-corrupted allocations and checks each invariant fires — and that
// the auditor only flags, never aborts.
func TestAuditDetectsBrokenAllocations(t *testing.T) {
	Instrument(nil)
	_, est := testRig(t, Config{})
	var got []string
	a := NewAuditor(AuditConfig{}, func(v AuditViolation) { got = append(got, v.Kind) })
	snap := hypervisor.Snapshot{}

	// Efficiency: shares that do not sum to the dynamic power.
	bad := &Allocation{DynamicPower: 40, PerVM: []float64{10, 10, 10}, Method: "exact"}
	a.audit(est, snap, bad)
	if len(got) != 1 || got[0] != "efficiency" {
		t.Fatalf("violations = %v, want [efficiency]", got)
	}
	if bad.Prov.AuditViolations != 1 {
		t.Fatalf("Prov.AuditViolations = %d", bad.Prov.AuditViolations)
	}
	if bad.Prov.EfficiencyResidualWatts != 10 {
		t.Fatalf("residual = %g, want 10", bad.Prov.EfficiencyResidualWatts)
	}

	// Non-finite share (the NaN poisons the sum too, so efficiency also
	// fires — both edges matter, order does not).
	got = nil
	bad = &Allocation{DynamicPower: 40, PerVM: []float64{math.NaN(), 20, 20}, Method: "exact"}
	a.audit(est, snap, bad)
	if !containsKind(got, "non-finite") {
		t.Fatalf("violations = %v, want non-finite", got)
	}

	// Share far outside the plausibility band (sum kept consistent so
	// only the bound check fires).
	got = nil
	bad = &Allocation{DynamicPower: 40, PerVM: []float64{140, -60, -40}, Method: "exact"}
	a.audit(est, snap, bad)
	if !containsKind(got, "share-bound") || containsKind(got, "efficiency") {
		t.Fatalf("violations = %v, want share-bound only", got)
	}

	// Monte-Carlo slack: a residual an exact tick would flag passes.
	got = nil
	ok := &Allocation{DynamicPower: 40, PerVM: []float64{20.0005, 10, 10}, Method: "montecarlo"}
	a.audit(est, snap, ok)
	if len(got) != 0 {
		t.Fatalf("MC tick flagged: %v", got)
	}
	exact := &Allocation{DynamicPower: 40, PerVM: []float64{20.0005, 10, 10}, Method: "exact"}
	a.audit(est, snap, exact)
	if !containsKind(got, "efficiency") {
		t.Fatalf("same residual not flagged on an exact tick: %v", got)
	}
}

func containsKind(kinds []string, want string) bool {
	for _, k := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

// TestAuditDeepCheckCatchesDivergence re-solves a genuine tick with the
// reference (clean → no mismatch), then perturbs two shares in
// an efficiency-preserving way so only the deep check can notice.
func TestAuditDeepCheckCatchesDivergence(t *testing.T) {
	Instrument(nil)
	host, est := auditRig(t, Config{Seed: 12})
	host.Advance(1)
	snap := host.Collect()
	alloc, err := est.Estimate(snap, 150)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Method != "exact" {
		t.Fatalf("Method = %q", alloc.Method)
	}

	var got []AuditViolation
	a := NewAuditor(AuditConfig{DeepEvery: 1}, func(v AuditViolation) { got = append(got, v) })
	a.audit(est, snap, alloc)
	if len(got) != 0 {
		t.Fatalf("clean tick flagged: %+v", got)
	}
	if !alloc.Prov.DeepChecked || alloc.Prov.DeepMaxDeltaWatts > 1e-9 {
		t.Fatalf("deep check did not run cleanly: %+v", alloc.Prov)
	}

	// Shift 1 mW between two VMs: Σφ unchanged, so the cheap pass stays
	// silent and only the re-solve can tell.
	alloc.PerVM[0] += 1e-3
	alloc.PerVM[1] -= 1e-3
	alloc.Prov = Provenance{Tier: alloc.Prov.Tier}
	got = nil
	a.audit(est, snap, alloc)
	if !containsViolation(got, "deep-mismatch") || containsViolation(got, "efficiency") {
		t.Fatalf("violations = %+v, want deep-mismatch only", got)
	}
	if alloc.Prov.DeepMaxDeltaWatts < 0.9e-3 {
		t.Fatalf("deep delta = %g, want ~1e-3", alloc.Prov.DeepMaxDeltaWatts)
	}

	// A tick whose shares solve the game at the wrong dynamic power agree
	// with its DynamicPower, so the Efficiency check stays silent; only a
	// reference that derives dyn from the meter reading can tell.
	off, err := est.Estimate(snap, 151.5)
	if err != nil {
		t.Fatal(err)
	}
	off.MeasuredPower = 150
	got = nil
	a.audit(est, snap, off)
	if !containsViolation(got, "deep-mismatch") || containsViolation(got, "efficiency") {
		t.Fatalf("violations = %+v, want deep-mismatch only", got)
	}

	// Non-exact ticks have no exact reference and must be skipped.
	mc := &Allocation{DynamicPower: 12, PerVM: []float64{6, 3, 3}, Method: "montecarlo"}
	got = nil
	a.audit(est, snap, mc)
	if len(got) != 0 || mc.Prov.DeepChecked {
		t.Fatalf("MC tick deep-checked: %+v / %+v", got, mc.Prov)
	}
}

func containsViolation(vs []AuditViolation, kind string) bool {
	for _, v := range vs {
		if v.Kind == kind {
			return true
		}
	}
	return false
}
