package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// symTestRig builds a rig with repeated VM types on the given profile:
// typeCounts[t] VMs of catalog type t, in type order (so same-type VMs
// are ID-contiguous).
func symTestRig(t *testing.T, prof machine.Profile, typeCounts []int, cfg Config) (*hypervisor.Host, *Estimator) {
	t.Helper()
	mach, err := machine.New(prof, machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	var vms []vm.VM
	for typ, c := range typeCounts {
		for i := 0; i < c; i++ {
			vms = append(vms, vm.VM{Type: vm.TypeID(typ)})
		}
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
	if cfg.OfflineTicksPerCombo == 0 {
		cfg.OfflineTicksPerCombo = 40
	}
	if cfg.IdleMeasureTicks == 0 {
		cfg.IdleMeasureTicks = 3
	}
	est, err := New(host, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return host, est
}

// attachClassWorkloads binds one workload per catalog type, shared (same
// seed / same constant) by every VM of that type, so same-type VMs carry
// bit-equal states each tick and form genuine symmetry classes.
func attachClassWorkloads(t *testing.T, host *hypervisor.Host, gens []workload.Generator) {
	t.Helper()
	set := host.Set()
	for i := 0; i < set.Len(); i++ {
		v, err := set.VM(vm.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(vm.ID(i), gens[int(v.Type)]); err != nil {
			t.Fatal(err)
		}
	}
}

func startAll(t testing.TB, host *hypervisor.Host) {
	t.Helper()
	running := make([]bool, host.Set().Len())
	for i := range running {
		running[i] = true
	}
	if err := host.SetRunning(running); err != nil {
		t.Fatal(err)
	}
}

// TestSymmetryMatchesLegacyExact pins the exact tier on grouped states:
// a 14-VM host (12x type0 + 2x type1, class workloads) must agree with
// the legacy 2^n route (the legacyEstimate oracle) on every share of
// every tick to 1e-12 of the measured power scale, across constant and
// moving states and running-set changes, and give same-group VMs equal
// shares bit for bit.
func TestSymmetryMatchesLegacyExact(t *testing.T) {
	typeCounts := []int{12, 2}
	cfg := Config{Seed: 3, OfflineTicksPerCombo: 40, IdleMeasureTicks: 3}
	hostS, estS := symTestRig(t, machine.XeonProfile(), typeCounts, cfg)
	if err := estS.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	attachClassWorkloads(t, hostS, []workload.Generator{
		workload.Synthetic{Seed: 11}, // type 0: all 12 members dirty every tick
		workload.Constant("steady", vm.State{vm.CPU: 0.4, vm.Memory: 0.2, vm.DiskIO: 0.1}),
	})

	symTicks := 0
	step := func(tick int) {
		allocS, err := estS.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: sym estimate: %v", tick, err)
		}
		allocL := legacyEstimate(t, estS, hostS.Collect(), allocS.MeasuredPower)
		if allocS.Method != "exact" || allocL.Method != "exact" {
			t.Fatalf("tick %d: methods %q / %q", tick, allocS.Method, allocL.Method)
		}
		if allocS.SymmetryClasses > 0 {
			symTicks++
		}
		tol := 1e-12 * math.Max(1, allocS.MeasuredPower)
		for i := range allocS.PerVM {
			if math.Abs(allocS.PerVM[i]-allocL.PerVM[i]) > tol {
				t.Fatalf("tick %d VM %d: sym %.17g, legacy %.17g (tol %g)",
					tick, i, allocS.PerVM[i], allocL.PerVM[i], tol)
			}
		}
		// Symmetry axiom, exactly: same-group members get the same share
		// bit for bit (one phi per group).
		if allocS.SymmetryClasses > 0 {
			set := hostS.Set()
			snap := hostS.Collect()
			for i := 1; i < set.Len(); i++ {
				vi, _ := set.VM(vm.ID(i))
				v0, _ := set.VM(vm.ID(i - 1))
				if vi.Type == v0.Type && snap.Running[i] && snap.Running[i-1] &&
					snap.States[i] == snap.States[i-1] &&
					allocS.PerVM[i] != allocS.PerVM[i-1] {
					t.Fatalf("tick %d: same-class VMs %d/%d differ: %v vs %v",
						tick, i-1, i, allocS.PerVM[i-1], allocS.PerVM[i])
				}
			}
		}
		// Efficiency against the measured dynamic power.
		var sum float64
		for _, p := range allocS.PerVM {
			sum += p
		}
		if math.Abs(sum-allocS.DynamicPower) > 1e-9*math.Max(1, allocS.DynamicPower) {
			t.Fatalf("tick %d: Σφ = %v, dyn = %v", tick, sum, allocS.DynamicPower)
		}
	}

	tick := 0
	phase := func(stopped []int, ticks int) {
		startAll(t, hostS)
		for _, id := range stopped {
			if err := hostS.Stop(vm.ID(id)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < ticks; i++ {
			hostS.Advance(1)
			tick++
			step(tick)
		}
	}
	phase(nil, 10)               // full house: classes (12, 2), all-dirty + steady
	phase([]int{0, 1, 2, 13}, 8) // class-count change: (9, 1), full retab
	phase(nil, 6)                // recovery
	if symTicks == 0 {
		t.Fatal("no tick was served by the exact tier")
	}
}

// TestSymmetryWideHost pins exact estimation past the 2^n wall: a 30-VM
// host — past vm.MaxPlayers, where coalition masks cannot exist —
// collects offline and estimates exactly over its three groups, with
// per-group equal shares, efficiency against the meter and the model
// residual on the metrics.
func TestSymmetryWideHost(t *testing.T) {
	typeCounts := []int{10, 10, 10}
	host, est := symTestRig(t, machine.DenseProfile(), typeCounts, Config{Seed: 7})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	attachClassWorkloads(t, host, []workload.Generator{
		workload.Synthetic{Seed: 21},
		workload.Constant("steady", vm.State{vm.CPU: 0.5, vm.Memory: 0.25, vm.DiskIO: 0.1}),
		workload.Synthetic{Seed: 23, IdleProb: 0.1},
	})
	startAll(t, host)
	for tick := 0; tick < 12; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if alloc.Method != "exact" {
			t.Fatalf("tick %d: method %q, want exact", tick, alloc.Method)
		}
		if alloc.SymmetryClasses != 3 {
			t.Fatalf("tick %d: %d classes, want 3", tick, alloc.SymmetryClasses)
		}
		if len(alloc.PerVM) != 30 {
			t.Fatalf("tick %d: %d shares", tick, len(alloc.PerVM))
		}
		// Same-class members share one phi, bit for bit.
		for typ := 0; typ < 3; typ++ {
			base := typ * 10
			for i := 1; i < 10; i++ {
				if alloc.PerVM[base+i] != alloc.PerVM[base] {
					t.Fatalf("tick %d: class %d shares differ: %v vs %v",
						tick, typ, alloc.PerVM[base+i], alloc.PerVM[base])
				}
			}
		}
		var sum float64
		for _, p := range alloc.PerVM {
			sum += p
		}
		if math.Abs(sum-alloc.DynamicPower) > 1e-9*math.Max(1, alloc.DynamicPower) {
			t.Fatalf("tick %d: Σφ = %v, dyn = %v", tick, sum, alloc.DynamicPower)
		}
	}
	// Stop three VMs of class 0: counts (7, 10, 10), still collapsed.
	for _, id := range []vm.ID{0, 1, 2} {
		if err := host.Stop(id); err != nil {
			t.Fatal(err)
		}
	}
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	if alloc.SymmetryClasses != 3 {
		t.Fatalf("after stop: %d classes, want 3", alloc.SymmetryClasses)
	}
	for _, id := range []int{0, 1, 2} {
		if alloc.PerVM[id] != 0 {
			t.Fatalf("stopped VM %d got %v, want 0", id, alloc.PerVM[id])
		}
	}
	if got := metrics().ModelResidual.Count(); got != 13 {
		t.Fatalf("vmpower_model_residual_ratio counted %d ticks, want 13", got)
	}
}

// TestSymmetryWideHostRequiresCollapse pins the wide-host tier gate: a
// set past the mask limit whose running VMs do not group within the
// exact budget, on synthetic states whose correction search runs past
// its cap, cannot be estimated, and the error says why. Once the
// same host groups, Estimate serves every tick exactly as EstimateTick
// did: same tier, same shares bit for bit.
func TestSymmetryWideHostRequiresCollapse(t *testing.T) {
	host, est := symTestRig(t, machine.DenseProfile(), []int{10, 10, 10}, Config{Seed: 7})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	// Distinct per-VM workloads: every running VM is a class of one.
	for i := 0; i < host.Set().Len(); i++ {
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	startAll(t, host)
	host.Advance(1)
	if _, err := est.EstimateTick(); err == nil || !strings.Contains(err.Error(), "mask limit") {
		t.Fatalf("EstimateTick on a wide host without collapse: error %v, want one naming the mask limit", err)
	}
	if _, err := est.Estimate(host.Collect(), 500); err == nil || !strings.Contains(err.Error(), "mask limit") {
		t.Fatalf("Estimate on a wide host without collapse: error %v, want one naming the mask limit", err)
	}

	attachClassWorkloads(t, host, []workload.Generator{
		workload.Synthetic{Seed: 21},
		workload.Constant("steady", vm.State{vm.CPU: 0.5, vm.Memory: 0.25, vm.DiskIO: 0.1}),
		workload.Synthetic{Seed: 23, IdleProb: 0.1},
	})
	for tick := 0; tick < 4; tick++ {
		host.Advance(1)
		live, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if live.Prov.Tier != TierExact {
			t.Fatalf("tick %d: tier %s, want %s", tick, live.Prov.Tier, TierExact)
		}
		got, err := est.Estimate(host.Collect(), live.MeasuredPower)
		if err != nil {
			t.Fatalf("tick %d: Estimate: %v", tick, err)
		}
		if got.Prov.Tier != live.Prov.Tier || !reflect.DeepEqual(got.PerVM, live.PerVM) {
			t.Fatalf("tick %d: Estimate (%s) %v != EstimateTick (%s) %v",
				tick, got.Prov.Tier, got.PerVM, live.Prov.Tier, live.PerVM)
		}
	}
	// Without Running flags a wide snapshot's running set is unknown, so
	// Estimate refuses it instead of billing nobody.
	snap := host.Collect()
	snap.Running = nil
	if _, err := est.Estimate(snap, 500); err == nil || !strings.Contains(err.Error(), "Running flags") {
		t.Fatalf("Estimate on a wide snapshot without Running flags: error %v", err)
	}
}

// TestSymmetrySharesPinned pins the exact tier's shares bit for bit: a
// 68-VM dense host whose running VMs form five groups over two classes —
// a small moving group ahead of a 50-member steady one in the same
// class — runs through moving, steady and running-set-change ticks, and
// the FNV-64a digest of every share's bits must equal the recorded one.
// A change that moves any share by one ulp fails here; a deliberate
// change to calibration, the simulator or the solver must re-derive the
// digest and say why it moved.
func TestSymmetrySharesPinned(t *testing.T) {
	const want = uint64(0x048e5ee65a57dc11)
	host, est := symTestRig(t, machine.DenseProfile(), []int{60, 8}, Config{Seed: 19})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	steadyA := workload.Constant("a", vm.State{vm.CPU: 0.35, vm.Memory: 0.15, vm.DiskIO: 0.05})
	steadyB := workload.Constant("b", vm.State{vm.CPU: 0.6, vm.Memory: 0.3, vm.DiskIO: 0.2})
	for i := 0; i < host.Set().Len(); i++ {
		var g workload.Generator
		switch {
		case i < 3:
			g = workload.Synthetic{Seed: 5}
		case i < 53:
			g = steadyA
		case i < 60:
			g = workload.Synthetic{Seed: 6}
		case i < 62:
			g = steadyB
		default:
			g = workload.Synthetic{Seed: 7}
		}
		if err := host.Attach(vm.ID(i), g); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	var buf [8]byte
	tick := func() {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Prov.Tier != TierExact {
			t.Fatalf("tick %d: tier %v, want the exact tier", alloc.Tick, alloc.Prov.Tier)
		}
		// The pinned bits are the oracle's to 1e-12.
		plan, err := est.ensurePlan()
		if err != nil {
			t.Fatal(err)
		}
		var g groupScratch
		snap := host.Collect()
		if err := g.build(plan, snap, g.runningMembers(snap)); err != nil {
			t.Fatal(err)
		}
		want, scale := countTextbook(t, plan, g.groups, alloc.DynamicPower)
		got := make([]float64, len(g.groups))
		for i, j := range g.groupOf {
			if j >= 0 {
				got[j] = alloc.PerVM[i]
			}
		}
		checkAgainst(t, "pinned rig", got, want, scale)
		for _, p := range alloc.PerVM {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
	}
	startAll(t, host)
	for i := 0; i < 6; i++ {
		tick()
	}
	for _, id := range []vm.ID{0, 10, 61} {
		if err := host.Stop(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		tick()
	}
	startAll(t, host)
	for i := 0; i < 3; i++ {
		tick()
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("share digest %#016x, want %#016x", got, want)
	}
}
