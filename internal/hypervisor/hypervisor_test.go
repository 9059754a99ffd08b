package hypervisor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
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
	snap := h.Collect()
	loads, err := h.LoadsFor(snap.Running, snap.States)
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

// memoHost is a host in a fixed mixed state for the memo tests, with the
// workloads it attached and their attach ticks, so a test can collect the
// current tick without the host's memo.
type memoHost struct {
	*Host
	gens   []workload.Generator
	epochs []int
}

// newMemoHost builds four VMs on a Xeon: VM 0 running a synthetic load,
// VM 1 stopped with one, VM 2 running a constant 80% CPU and VM 3
// stopped with none.
func newMemoHost(t *testing.T) *memoHost {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{{Type: 0}, {Type: 0}, {Type: 1}, {Type: 1}})
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	h := &memoHost{Host: host, gens: make([]workload.Generator, 4), epochs: make([]int, 4)}
	h.Advance(5)
	h.attach(t, 0, workload.Synthetic{Seed: 1})
	h.attach(t, 1, workload.Synthetic{Seed: 2})
	h.attach(t, 2, workload.Constant("c", vm.State{vm.CPU: 0.8, vm.Memory: 0.3}))
	if err := h.SetRunning([]bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	h.Advance(2)
	return h
}

func (h *memoHost) attach(t *testing.T, id vm.ID, g workload.Generator) {
	t.Helper()
	if err := h.Attach(id, g); err != nil {
		t.Fatal(err)
	}
	h.gens[id], h.epochs[id] = g, h.Clock()
}

// reference collects the current tick straight from the generators, the
// host clock, the running flags and the CPU limits, and prices it on the
// machine.
func (h *memoHost) reference(t *testing.T) (Snapshot, float64) {
	t.Helper()
	snap := Snapshot{Tick: h.Clock(), Running: h.Running()}
	snap.States = make([]vm.State, len(snap.Running))
	for i, r := range snap.Running {
		if !r || h.gens[i] == nil {
			continue
		}
		s := h.gens[i].StateAt(snap.Tick - h.epochs[i])
		limit, err := h.CPULimit(vm.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		s[vm.CPU] = min(s[vm.CPU], limit)
		snap.States[i] = s.Quantize(h.Resolution())
	}
	loads, err := h.LoadsFor(snap.Running, snap.States)
	if err != nil {
		t.Fatal(err)
	}
	power, err := h.Machine().Power(loads)
	if err != nil {
		t.Fatal(err)
	}
	return snap, power
}

// check compares Collect and TruePower with the reference.
func (h *memoHost) check(t *testing.T, when string) {
	t.Helper()
	want, wantPower := h.reference(t)
	got := h.Collect()
	if got.Tick != want.Tick || !slices.Equal(got.Running, want.Running) || !slices.Equal(got.States, want.States) {
		t.Fatalf("%s: Collect = %+v, want %+v", when, got, want)
	}
	power, err := h.TruePower()
	if err != nil {
		t.Fatal(err)
	}
	if power != wantPower {
		t.Fatalf("%s: TruePower = %v, want %v", when, power, wantPower)
	}
}

// TestCollectMemoInvalidation calls every Host mutator after a collection
// and checks that the next Collect and TruePower see the change: a
// mutator that kept the tick's memo would serve the old states.
func TestCollectMemoInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, h *memoHost) error
	}{
		{"Advance", func(t *testing.T, h *memoHost) error { h.Advance(1); return nil }},
		{"Attach", func(t *testing.T, h *memoHost) error {
			h.attach(t, 0, workload.Constant("low", vm.State{vm.CPU: 0.37}))
			return nil
		}},
		{"Start", func(t *testing.T, h *memoHost) error { return h.Start(1) }},
		{"Stop", func(t *testing.T, h *memoHost) error { return h.Stop(0) }},
		{"SetCoalition", func(t *testing.T, h *memoHost) error { h.SetCoalition(vm.CoalitionOf(1, 2)); return nil }},
		{"SetRunning", func(t *testing.T, h *memoHost) error { return h.SetRunning([]bool{true, true, false, false}) }},
		{"SetAll", func(t *testing.T, h *memoHost) error { h.SetAll(true); return nil }},
		{"SetCPULimit", func(t *testing.T, h *memoHost) error { return h.SetCPULimit(2, 0.3) }},
		{"AddVM", func(t *testing.T, h *memoHost) error {
			h.gens, h.epochs = append(h.gens, nil), append(h.epochs, 0)
			_, err := h.AddVM(vm.VM{Type: 0})
			return err
		}},
		{"Retire", func(t *testing.T, h *memoHost) error {
			h.gens[2] = nil
			return h.Retire(2)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newMemoHost(t)
			h.check(t, "before")
			before, beforePower := h.reference(t)
			if err := tc.mutate(t, h); err != nil {
				t.Fatal(err)
			}
			after, afterPower := h.reference(t)
			if slices.Equal(before.States, after.States) && beforePower == afterPower {
				t.Fatal("the mutation must change the collected states")
			}
			h.check(t, "after")
		})
	}
}

// TestCollectOwnership pins that a snapshot's slices belong to the caller:
// writing to them changes nothing the host collects next, and
// CollectInto reuses them without sharing the memo.
func TestCollectOwnership(t *testing.T) {
	h := newMemoHost(t)
	snap := h.Collect()
	snap.Running[1] = true
	snap.States[0][vm.CPU] = 0.99
	snap.States[3] = vm.State{vm.DiskIO: 1}
	h.check(t, "after writing to a snapshot")
	h.CollectInto(&snap)
	want, _ := h.reference(t)
	if !slices.Equal(snap.Running, want.Running) || !slices.Equal(snap.States, want.States) {
		t.Fatalf("CollectInto = %+v, want %+v", snap, want)
	}
	snap.States[2] = vm.State{}
	h.check(t, "after writing to a reused snapshot")
}

// TestTruePowerZeroAlloc pins the meter's ground truth at zero
// allocations once the tick is collected.
func TestTruePowerZeroAlloc(t *testing.T) {
	h := newMemoHost(t)
	if _, err := h.TruePower(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.TruePower(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("TruePower allocates %v times per call on a collected tick, want 0", allocs)
	}
}

// TestCollectConcurrentWithMutators runs Collect and TruePower against
// Advance and SetRunning on other goroutines (run it under -race): every
// snapshot must be one tick's, its states those of its own running set
// at its own clock.
func TestCollectConcurrentWithMutators(t *testing.T) {
	h := newMemoHost(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.Advance(1)
			if err := h.SetRunning([]bool{i%2 == 0, true, i%3 == 0, false}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				snap := h.Collect()
				for id, running := range snap.Running {
					var want vm.State
					if g := h.gens[id]; running && g != nil {
						want = g.StateAt(snap.Tick - h.epochs[id]).Quantize(h.Resolution())
					}
					if snap.States[id] != want {
						errs <- fmt.Errorf("tick %d VM %d: state %v, want %v", snap.Tick, id, snap.States[id], want)
						return
					}
				}
				if p, err := h.TruePower(); err != nil || p < h.Machine().Profile().IdlePower {
					errs <- fmt.Errorf("TruePower = %v, %v", p, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
