package capping

import (
	"testing"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// rig builds a calibrated 3-VM system (2×VM1, 1×VM3) with a controller.
func rig(t *testing.T) (*hypervisor.Host, *core.Estimator, *Controller) {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "a", Type: 0}, {Name: "b", Type: 0}, {Name: "big", Type: 2},
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
	est, err := core.New(host, m, core.Config{OfflineTicksPerCombo: 80, IdleMeasureTicks: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(host)
	if err != nil {
		t.Fatal(err)
	}
	return host, est, ctrl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("want nil-host error")
	}
}

func TestSetCapValidation(t *testing.T) {
	host, _, ctrl := rig(t)
	_ = host
	if err := ctrl.SetCap(99, 10); err == nil {
		t.Fatal("want unknown-VM error")
	}
	if err := ctrl.SetCap(0, 0); err == nil {
		t.Fatal("want positive-cap error")
	}
	if err := ctrl.SetCap(0, 5); err != nil {
		t.Fatal(err)
	}
}

func TestThrottleConvergesUnderCap(t *testing.T) {
	host, est, ctrl := rig(t)
	// The big VM runs flat out (~37 W uncapped); cap it at 20 W.
	for _, id := range []vm.ID{0, 1, 2} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.GrandCoalition(3))
	const capW = 20.0
	if err := ctrl.SetCap(2, capW); err != nil {
		t.Fatal(err)
	}
	// Let the loop settle, then measure compliance over a window.
	if _, err := ctrl.Run(est, 10); err != nil {
		t.Fatal(err)
	}
	breaches, err := ctrl.Run(est, 20)
	if err != nil {
		t.Fatal(err)
	}
	if breaches[2] > 2 {
		t.Fatalf("capped VM above cap for %d/20 settled ticks", breaches[2])
	}
	limit, err := host.CPULimit(2)
	if err != nil {
		t.Fatal(err)
	}
	if limit >= 1 {
		t.Fatal("controller never throttled the capped VM")
	}
	// Uncapped VMs must remain unthrottled.
	for _, id := range []vm.ID{0, 1} {
		l, err := host.CPULimit(id)
		if err != nil {
			t.Fatal(err)
		}
		if l != 1 {
			t.Fatalf("uncapped vm%d limit = %g", id, l)
		}
	}
}

func TestReleaseAfterLoadDrops(t *testing.T) {
	host, est, ctrl := rig(t)
	if err := host.Attach(2, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(2))
	if err := ctrl.SetCap(2, 15); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(est, 15); err != nil {
		t.Fatal(err)
	}
	throttled, err := host.CPULimit(2)
	if err != nil {
		t.Fatal(err)
	}
	if throttled >= 1 {
		t.Fatal("expected a throttle first")
	}
	// Load drops to 20%: well under the cap, the limit must climb back.
	if err := host.Attach(2, workload.Constant("light", vm.State{vm.CPU: 0.2})); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(est, 30); err != nil {
		t.Fatal(err)
	}
	released, err := host.CPULimit(2)
	if err != nil {
		t.Fatal(err)
	}
	if released <= throttled {
		t.Fatalf("limit %g did not release from %g", released, throttled)
	}
}

func TestRemoveCapLiftsLimit(t *testing.T) {
	host, est, ctrl := rig(t)
	if err := host.Attach(2, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(2))
	if err := ctrl.SetCap(2, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(est, 10); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RemoveCap(2); err != nil {
		t.Fatal(err)
	}
	limit, err := host.CPULimit(2)
	if err != nil {
		t.Fatal(err)
	}
	if limit != 1 {
		t.Fatalf("limit after RemoveCap = %g", limit)
	}
	// Removing an absent cap is a no-op.
	if err := ctrl.RemoveCap(0); err != nil {
		t.Fatal(err)
	}
}

func TestObserveValidation(t *testing.T) {
	_, _, ctrl := rig(t)
	if _, err := ctrl.Observe(nil); err == nil {
		t.Fatal("want nil-allocation error")
	}
}

func TestActionString(t *testing.T) {
	a := Action{VM: 2, Power: 25, Cap: 20, OldLimit: 1, NewLimit: 0.76}
	if got := a.String(); got == "" {
		t.Fatal("empty action string")
	}
	th := Action{VM: 2, Power: 25, Cap: 20, OldLimit: 0.5, NewLimit: 0.55}
	if got := th.String(); got == "" {
		t.Fatal("empty release string")
	}
}

func TestMinLimitFloor(t *testing.T) {
	host, est, ctrl := rig(t)
	if err := host.Attach(2, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(2))
	// An absurdly low cap cannot starve the VM below minLimit.
	if err := ctrl.SetCap(2, 0.001); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(est, 20); err != nil {
		t.Fatal(err)
	}
	limit, err := host.CPULimit(2)
	if err != nil {
		t.Fatal(err)
	}
	if limit < minLimit-1e-12 {
		t.Fatalf("limit %g fell below the floor", limit)
	}
}
