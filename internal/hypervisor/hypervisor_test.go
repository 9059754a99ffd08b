package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"vmpower/internal/machine"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func testHost(t *testing.T, opts ...Option) *Host {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "a", Type: 0},
		{Name: "b", Type: 0},
		{Name: "c", Type: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHost(mach, set, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

func TestNewHostValidation(t *testing.T) {
	mach, _ := machine.New(machine.XeonProfile(), machine.Pack)
	if _, err := NewHost(nil, nil); err == nil {
		t.Fatal("want nil-machine error")
	}
	if _, err := NewHost(mach, nil); err == nil {
		t.Fatal("want empty-set error")
	}
	// A set that exceeds the machine's logical cores must be rejected.
	small, err := machine.New(machine.PentiumProfile(), machine.Pack) // 4 logical
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{{Type: 3}}) // 8 vCPUs
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHost(small, set); !errors.Is(err, machine.ErrOvercommit) {
		t.Fatalf("want ErrOvercommit, got %v", err)
	}
}

func TestLifecycle(t *testing.T) {
	h := testHost(t)
	if slices.Contains(h.Running(), true) {
		t.Fatal("all VMs must start stopped")
	}
	if err := h.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(0); err != nil {
		t.Fatal(err) // idempotent
	}
	if got := h.Running(); !slices.Equal(got, []bool{true, false, false}) {
		t.Fatalf("Running = %v", got)
	}
	if err := h.Stop(0); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(h.Running(), true) {
		t.Fatal("Stop must remove the VM")
	}
	if err := h.Start(99); err == nil {
		t.Fatal("want unknown-VM error")
	}
	if err := h.Stop(99); err == nil {
		t.Fatal("want unknown-VM error")
	}
}

func TestSetCoalition(t *testing.T) {
	h := testHost(t)
	h.SetCoalition(vm.CoalitionOf(0, 2))
	if got := h.Running(); !slices.Equal(got, []bool{true, false, true}) {
		t.Fatalf("Running = %v", got)
	}
	h.SetCoalition(vm.EmptyCoalition)
	if slices.Contains(h.Running(), true) {
		t.Fatal("SetCoalition(empty) must stop everything")
	}
}

// TestWidthFreeSetters pins SetRunning and SetAll on a host of more VMs
// than a coalition mask holds: every VM is reached, retired slots stay
// stopped, and Running returns a copy.
func TestWidthFreeSetters(t *testing.T) {
	mach, err := machine.New(machine.DenseProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, 40)
	for i := range vms {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%d", i), Type: 0}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Retire(35); err != nil {
		t.Fatal(err)
	}
	h.SetAll(true)
	got := h.Running()
	for i, r := range got {
		if r != (i != 35) {
			t.Fatalf("after SetAll(true) VM %d running = %v", i, r)
		}
	}
	got[0] = false
	if r, _ := h.IsRunning(0); !r {
		t.Fatal("Running must return a copy")
	}
	running := make([]bool, 40)
	running[33], running[35], running[39] = true, true, true
	if err := h.SetRunning(running); err != nil {
		t.Fatal(err)
	}
	running[35] = false
	if got := h.Running(); !slices.Equal(got, running) {
		t.Fatalf("after SetRunning: %v", got)
	}
	if err := h.SetRunning(running[:39]); err == nil {
		t.Fatal("want a flag-count error")
	}
	h.SetAll(false)
	if slices.Contains(h.Running(), true) {
		t.Fatal("SetAll(false) must stop everything")
	}
}

func TestClockAdvance(t *testing.T) {
	h := testHost(t)
	if h.Clock() != 0 {
		t.Fatal("clock must start at 0")
	}
	h.Advance(3)
	h.Advance(0)
	h.Advance(-5)
	if h.Clock() != 3 {
		t.Fatalf("Clock = %d, want 3", h.Clock())
	}
}

func TestCollect(t *testing.T) {
	h := testHost(t)
	if err := h.Attach(0, workload.Constant("c", vm.State{vm.CPU: 0.456})); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(1, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(9, nil); err == nil {
		t.Fatal("want unknown-VM attach error")
	}
	h.SetCoalition(vm.CoalitionOf(0)) // only VM 0 runs
	snap := h.Collect()
	if !slices.Equal(snap.Running, []bool{true, false, false}) {
		t.Fatalf("Running = %v", snap.Running)
	}
	// Running VM's state is quantized to the default 0.01 resolution.
	if got := snap.States[0][vm.CPU]; math.Abs(got-0.46) > 1e-12 {
		t.Fatalf("quantized state = %g, want 0.46", got)
	}
	// Stopped VMs report zero states even with workloads attached.
	if !snap.States[1].IsIdle() {
		t.Fatal("stopped VM must report idle state")
	}
	// Running VM with no workload idles.
	h.SetCoalition(vm.CoalitionOf(2))
	if !h.Collect().States[2].IsIdle() {
		t.Fatal("running VM without workload must idle")
	}
}

func TestResolutionOption(t *testing.T) {
	h := testHost(t, WithResolution(0.1))
	if h.Resolution() != 0.1 {
		t.Fatalf("Resolution = %g", h.Resolution())
	}
	if err := h.Attach(0, workload.Constant("c", vm.State{vm.CPU: 0.456})); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(0); err != nil {
		t.Fatal(err)
	}
	if got := h.Collect().States[0][vm.CPU]; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("state at 0.1 resolution = %g, want 0.5", got)
	}
}

func TestLoadsAndPower(t *testing.T) {
	h := testHost(t)
	if err := h.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(0); err != nil {
		t.Fatal(err)
	}
	loads, err := h.Loads()
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 1 || loads[0].VCPUs != 1 {
		t.Fatalf("Loads = %+v", loads)
	}
	p, err := h.TruePower()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-151) > 0.5 { // 138 idle + 13 dynamic
		t.Fatalf("TruePower = %g, want ~151", p)
	}
	src := h.PowerSource()
	p2, err := src()
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatalf("PowerSource = %g, TruePower = %g", p2, p)
	}
}

func TestCPULimits(t *testing.T) {
	h := testHost(t)
	if err := h.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(0); err != nil {
		t.Fatal(err)
	}
	// Default limit is 1 (unthrottled).
	limit, err := h.CPULimit(0)
	if err != nil {
		t.Fatal(err)
	}
	if limit != 1 {
		t.Fatalf("default limit = %g", limit)
	}
	if err := h.SetCPULimit(0, 0.4); err != nil {
		t.Fatal(err)
	}
	snap := h.Collect()
	if got := snap.States[0][vm.CPU]; math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("throttled CPU = %g, want 0.4", got)
	}
	// A workload below the limit is unaffected.
	if err := h.Attach(0, workload.Constant("low", vm.State{vm.CPU: 0.2})); err != nil {
		t.Fatal(err)
	}
	if got := h.Collect().States[0][vm.CPU]; math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("under-limit CPU = %g, want 0.2", got)
	}
	// Validation.
	if err := h.SetCPULimit(99, 0.5); err == nil {
		t.Fatal("want unknown-VM error")
	}
	if err := h.SetCPULimit(0, 0); err == nil {
		t.Fatal("want range error for 0")
	}
	if err := h.SetCPULimit(0, 1.5); err == nil {
		t.Fatal("want range error for > 1")
	}
	if _, err := h.CPULimit(99); err == nil {
		t.Fatal("want unknown-VM error")
	}
}

func TestWorkloadEpoch(t *testing.T) {
	// A workload attached late starts from its own tick 0: the host
	// passes generators attach-relative ticks.
	h := testHost(t)
	h.Advance(100)
	tr := workload.Trace{Label: "t", Samples: []vm.State{
		{vm.CPU: 0.9}, {vm.CPU: 0.1},
	}}
	if err := h.Attach(0, tr); err != nil {
		t.Fatal(err)
	}
	if err := h.Start(0); err != nil {
		t.Fatal(err)
	}
	if got := h.Collect().States[0][vm.CPU]; math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("epoch tick 0 = %g, want 0.9", got)
	}
	h.Advance(1)
	if got := h.Collect().States[0][vm.CPU]; math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("epoch tick 1 = %g, want 0.1", got)
	}
}

func TestLoadsFor(t *testing.T) {
	h := testHost(t)
	states := []vm.State{{vm.CPU: 1}, {vm.CPU: 0.5}, {vm.CPU: 0.2}}
	loads, err := h.LoadsFor([]bool{true, false, true}, states)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2 {
		t.Fatalf("LoadsFor size = %d", len(loads))
	}
	if loads[1].VCPUs != 2 { // VM 2 is type 1 (2 vCPUs)
		t.Fatalf("second load vCPUs = %d", loads[1].VCPUs)
	}
	if _, err := h.LoadsFor([]bool{true, false, false}, states[:1]); err == nil {
		t.Fatal("want state-count error")
	}
	if _, err := h.LoadsFor([]bool{true}, states); err == nil {
		t.Fatal("want flag-count error")
	}
}

func TestDynamicPowerFor(t *testing.T) {
	h := testHost(t)
	states := []vm.State{{vm.CPU: 1}, {vm.CPU: 1}, {}}
	// Two 1-vCPU VMs at full: 13 + 7 = 20 W (pack placement).
	p, err := h.DynamicPowerFor([]bool{true, true, false}, states)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-20) > 1e-9 {
		t.Fatalf("DynamicPowerFor = %g, want 20", p)
	}
	empty, err := h.DynamicPowerFor(make([]bool, 3), states)
	if err != nil {
		t.Fatal(err)
	}
	if empty != 0 {
		t.Fatalf("empty coalition power = %g", empty)
	}
}
