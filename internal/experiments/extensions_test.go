package experiments

import (
	"fmt"
	"testing"
)

func TestCappingExperiment(t *testing.T) {
	res := runByID(t, "capping")
	capW := value(t, res, "cap")
	if value(t, res, "uncapped_power") <= capW {
		t.Fatal("scenario must start above the cap")
	}
	if got := value(t, res, "capped_power"); got > capW*1.1 {
		t.Fatalf("settled power %g far above cap %g", got, capW)
	}
	if got := value(t, res, "breach_fraction"); got > 0.25 {
		t.Fatalf("breach fraction = %g", got)
	}
	if got := value(t, res, "cpu_limit"); got >= 1 {
		t.Fatal("controller must have throttled the VM")
	}
}

func TestAdditivityExperiment(t *testing.T) {
	res := runByID(t, "additivity")
	if got := value(t, res, "additivity_deviation"); got > 1e-9 {
		t.Fatalf("additivity deviation = %g", got)
	}
	if got := value(t, res, "diskless_storage_share"); got != 0 {
		t.Fatalf("diskless VM storage share = %g (Dummy violated)", got)
	}
	sum := value(t, res, "total_sum")
	want := value(t, res, "expected_sum")
	if diff := sum - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("two-game efficiency: %g vs %g", sum, want)
	}
}

func TestFleetExperiment(t *testing.T) {
	res := runByID(t, "fleet")
	if got := value(t, res, "max_efficiency_gap"); got > 1e-6 {
		t.Fatalf("efficiency gap = %g", got)
	}
	// ml-corp (28 vCPUs) must out-consume the other tenants.
	ml := value(t, res, "power_ml-corp")
	if ml <= value(t, res, "power_acme") || ml <= value(t, res, "power_devshop") {
		t.Fatal("ml-corp should dominate tenant power")
	}
	if got := value(t, res, "hosts"); got < 2 {
		t.Fatalf("hosts = %g, want the pool to span >= 2 machines", got)
	}
}

// TestSumByNameOrder pins the fleet experiment's per-tick sum to
// ascending name order on a map whose sum depends on the order: one
// value dwarfs the others, so each 1 added to it rounds away, while the
// 1s added first survive.
func TestSumByNameOrder(t *testing.T) {
	m := map[string]float64{"a": 1e16}
	for i := 0; i < 20; i++ {
		m[fmt.Sprintf("b%02d", i)] = 1
	}
	want := 1e16 // "a" first: every 1 that follows rounds away
	for i := 0; i < 100; i++ {
		if got := sumByName(m); got != want {
			t.Fatalf("sum %d: %v, want %v, the sum in name order", i, got, want)
		}
	}
}

func TestAxiomsExperiment(t *testing.T) {
	res := runByID(t, "axioms")
	if got := value(t, res, "efficiency_gap_max"); got > 1e-9 {
		t.Fatalf("efficiency gap = %g", got)
	}
	if got := value(t, res, "symmetry_gap_max"); got > 1e-9 {
		t.Fatalf("symmetry gap = %g", got)
	}
	if got := value(t, res, "dummy_violations"); got != 0 {
		t.Fatalf("dummy violations = %g", got)
	}
}

func TestInteractionExperiment(t *testing.T) {
	res := runByID(t, "interaction")
	// Co-located VMs are substitutes: both headline entries negative.
	if got := value(t, res, "vm1_pair"); got >= 0 {
		t.Fatalf("VM1 pair interaction = %g, want < 0", got)
	}
	strongest := value(t, res, "strongest_cross")
	if strongest >= 0 {
		t.Fatalf("strongest cross interaction = %g, want < 0", strongest)
	}
	// The big-VM pair shares the most delivery budget.
	if strongest > value(t, res, "vm1_pair") {
		t.Fatal("a cross-type pair should dominate the small sibling pair")
	}
}

func TestArbitraryExperiment(t *testing.T) {
	res := runByID(t, "arbitrary")
	// More classes must not cost sweep feasibility accounting: 2 classes
	// sweep 3 combos, 4 classes 15.
	if value(t, res, "combos_k2") != 3 || value(t, res, "combos_k4") != 15 {
		t.Fatal("combo accounting wrong")
	}
	// Every clustering level must stay usable (< 10% mean error); the
	// k-ordering itself is asserted only on full runs (EXPERIMENTS.md)
	// because Quick-mode sample counts make per-k errors noisy.
	for _, k := range []string{"mean_err_k2", "mean_err_k4"} {
		if got := value(t, res, k); got > 0.10 {
			t.Fatalf("%s = %g", k, got)
		}
	}
}
