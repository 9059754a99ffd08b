package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmpower/internal/vm"
)

func load1(u float64) Load {
	return Load{VCPUs: 1, MemoryGB: 1, DiskGB: 8, State: vm.State{vm.CPU: u}}
}

func TestProfileValidate(t *testing.T) {
	for _, prof := range []Profile{XeonProfile(), PentiumProfile(), DenseProfile()} {
		if err := prof.Validate(); err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
	}
	bad := []func(p *Profile){
		func(p *Profile) { p.PhysicalCores = 0 },
		func(p *Profile) { p.ThreadsPerCore = 3 },
		func(p *Profile) { p.IdlePower = -1 },
		func(p *Profile) { p.Alpha = 0 },
		func(p *Profile) { p.Beta = p.Alpha },
		func(p *Profile) { p.Beta = -1 },
		func(p *Profile) { p.UncorePower = -1 },
		func(p *Profile) { p.DeliveryFloor = 0 },
		func(p *Profile) { p.DeliveryFloor = 1.5 },
		func(p *Profile) { p.DeliveryFloor = 0.5; p.DeliveryTau = 0 },
		func(p *Profile) { p.MemoryGB = 0 },
		func(p *Profile) { p.MemoryPowerMax = -1 },
	}
	for i, mutate := range bad {
		p := XeonProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d: want validation error", i)
		}
	}
}

func TestDeliveryFactor(t *testing.T) {
	p := XeonProfile()
	if got := p.DeliveryFactor(1); got != 1 {
		t.Fatalf("factor(1) = %g", got)
	}
	if got := p.DeliveryFactor(0); got != 1 {
		t.Fatalf("factor(0) = %g", got)
	}
	prev := 1.0
	for c := 2; c <= p.PhysicalCores; c++ {
		f := p.DeliveryFactor(c)
		if f >= prev {
			t.Fatalf("factor(%d) = %g not decreasing (prev %g)", c, f, prev)
		}
		if f < p.DeliveryFloor {
			t.Fatalf("factor(%d) = %g below floor %g", c, f, p.DeliveryFloor)
		}
		prev = f
	}
	flat := XeonProfile()
	flat.DeliveryFloor = 1
	if flat.DeliveryFactor(8) != 1 {
		t.Fatal("floor=1 must disable the effect")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Profile{}, Pack); err == nil {
		t.Fatal("want invalid-profile error")
	}
	if _, err := New(XeonProfile(), SchedulerPolicy(9)); err == nil {
		t.Fatal("want unknown-policy error")
	}
	m, err := New(XeonProfile(), Pack)
	if err != nil {
		t.Fatal(err)
	}
	if m.Profile().Name != "xeon16" {
		t.Fatal("Profile wrong")
	}
}

func TestPaperCalibrationXeon(t *testing.T) {
	// The headline Fig. 4b numbers: first busy 1-vCPU VM adds 13 W, the
	// second adds 7 W under Pack placement, so the per-VM model error is
	// (13−7)/13 = 46.15%.
	m, err := New(XeonProfile(), Pack)
	if err != nil {
		t.Fatal(err)
	}
	one, err := m.DynamicPower([]Load{load1(1)})
	if err != nil {
		t.Fatal(err)
	}
	two, err := m.DynamicPower([]Load{load1(1), load1(1)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one-13) > 1e-9 {
		t.Fatalf("first VM marginal = %g, want 13", one)
	}
	if math.Abs((two-one)-7) > 1e-9 {
		t.Fatalf("second VM marginal = %g, want 7", two-one)
	}
	if gotErr := (one - (two - one)) / one; math.Abs(gotErr-0.4615) > 0.001 {
		t.Fatalf("model error = %g, want 0.4615", gotErr)
	}
}

func TestPaperCalibrationPentium(t *testing.T) {
	m, err := New(PentiumProfile(), Pack)
	if err != nil {
		t.Fatal(err)
	}
	one, err := m.DynamicPower([]Load{load1(1)})
	if err != nil {
		t.Fatal(err)
	}
	two, err := m.DynamicPower([]Load{load1(1), load1(1)})
	if err != nil {
		t.Fatal(err)
	}
	if gotErr := (one - (two - one)) / one; math.Abs(gotErr-0.2522) > 0.001 {
		t.Fatalf("Pentium model error = %g, want 0.2522", gotErr)
	}
}

func TestIdlePower(t *testing.T) {
	m, err := New(XeonProfile(), Pack)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := m.DynamicPower(nil)
	if err != nil {
		t.Fatal(err)
	}
	if dyn != 0 {
		t.Fatalf("no loads must draw 0 dynamic, got %g", dyn)
	}
	total, err := m.Power(nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != 138 {
		t.Fatalf("idle total = %g, want 138", total)
	}
	// An attached but fully idle VM adds nothing (Remark 1).
	dynIdleVM, err := m.DynamicPower([]Load{load1(0)})
	if err != nil {
		t.Fatal(err)
	}
	if dynIdleVM != 0 {
		t.Fatalf("idle VM must draw 0, got %g", dynIdleVM)
	}
}

// threadSlot identifies a logical core as (physical core, thread).
type threadSlot struct{ core, thread int }

// slotOrder returns the placement order of the profile's logical cores
// under policy, listed explicitly.
func slotOrder(prof Profile, policy SchedulerPolicy) []threadSlot {
	slots := make([]threadSlot, 0, prof.LogicalCores())
	switch policy {
	case Spread:
		for t := 0; t < prof.ThreadsPerCore; t++ {
			for c := 0; c < prof.PhysicalCores; c++ {
				slots = append(slots, threadSlot{core: c, thread: t})
			}
		}
	default: // Pack
		for c := 0; c < prof.PhysicalCores; c++ {
			for t := 0; t < prof.ThreadsPerCore; t++ {
				slots = append(slots, threadSlot{core: c, thread: t})
			}
		}
	}
	return slots
}

// threadUtilizations is the placement oracle: it places the loads' vCPUs
// onto the slotOrder list in load order and returns the per-physical-core,
// per-thread utilization grid.
func threadUtilizations(m *Machine, loads []Load) ([][]float64, error) {
	grid := make([][]float64, m.prof.PhysicalCores)
	for i := range grid {
		grid[i] = make([]float64, m.prof.ThreadsPerCore)
	}
	slots := slotOrder(m.prof, m.policy)
	next := 0
	for li, l := range loads {
		if l.VCPUs <= 0 {
			return nil, fmt.Errorf("machine: load %d has %d vCPUs", li, l.VCPUs)
		}
		if err := l.State.Validate(); err != nil {
			return nil, fmt.Errorf("machine: load %d: %w", li, err)
		}
		for v := 0; v < l.VCPUs; v++ {
			if next >= len(slots) {
				return nil, fmt.Errorf("%w: need > %d", ErrOvercommit, len(slots))
			}
			s := slots[next]
			grid[s.core][s.thread] = l.State[vm.CPU]
			next++
		}
	}
	return grid, nil
}

// gridDynamicPower is DynamicPower computed over the oracle's grid, core
// by core.
func gridDynamicPower(m *Machine, loads []Load) (float64, error) {
	grid, err := threadUtilizations(m, loads)
	if err != nil {
		return 0, err
	}
	var cpu float64
	active := 0
	for _, threads := range grid {
		p := m.corePower(threads)
		if p > 0 {
			active++
		}
		cpu += p
	}
	cpu *= m.prof.DeliveryFactor(active)
	var memFrac, diskFrac float64
	for _, l := range loads {
		memFrac += l.State[vm.Memory] * float64(l.MemoryGB) / float64(m.prof.MemoryGB)
		diskFrac += l.State[vm.DiskIO]
	}
	if memFrac > 1 {
		memFrac = 1
	}
	if diskFrac > 1 {
		diskFrac = 1
	}
	return cpu + m.prof.MemoryPowerMax*memFrac + m.prof.DiskPowerMax*diskFrac, nil
}

// randomLoads draws loads of 1, 2, 4 or 8 vCPUs at random states until
// the next one would not fit in the machine's logical cores. A state
// component is 0 a quarter of the time, so idle threads sit next to
// busy ones.
func randomLoads(rng *rand.Rand, logical int) []Load {
	var loads []Load
	used := 0
	for {
		n := 1 << rng.Intn(4)
		if used+n > logical || rng.Intn(8) == 0 {
			return loads
		}
		used += n
		var s vm.State
		for c := range s {
			if rng.Intn(4) != 0 {
				s[c] = math.Round(rng.Float64()*100) / 100
			}
		}
		loads = append(loads, Load{VCPUs: n, MemoryGB: 1 + rng.Intn(8), DiskGB: 8, State: s})
	}
}

// TestDynamicPowerMatchesGridOracle pins the grid-free DynamicPower to the
// placement oracle bit for bit, and its errors to the oracle's.
func TestDynamicPowerMatchesGridOracle(t *testing.T) {
	for _, prof := range []Profile{XeonProfile(), DenseProfile(), PentiumProfile()} {
		for _, policy := range []SchedulerPolicy{Pack, Spread} {
			m, err := New(prof, policy)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(prof.LogicalCores())*10 + int64(policy)))
			for trial := 0; trial < 300; trial++ {
				loads := randomLoads(rng, prof.LogicalCores())
				got, err := m.DynamicPower(loads)
				if err != nil {
					t.Fatalf("%s/%s trial %d: %v", prof.Name, policy, trial, err)
				}
				want, err := gridDynamicPower(m, loads)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s/%s trial %d: DynamicPower = %v, oracle %v (loads %+v)", prof.Name, policy, trial, got, want, loads)
				}
			}
			full := Load{VCPUs: prof.LogicalCores(), MemoryGB: 1, DiskGB: 8, State: vm.State{vm.CPU: 1}}
			for _, bad := range [][]Load{
				{full, load1(1)},
				{load1(0.5), {VCPUs: prof.LogicalCores(), State: vm.State{vm.CPU: 1}}},
				{load1(0.5), {VCPUs: 0, State: vm.State{}}},
				{load1(0.5), {VCPUs: 1, State: vm.State{vm.CPU: 2}}},
				{{VCPUs: -1}, full, load1(1)},
				{full, {VCPUs: 1, State: vm.State{vm.DiskIO: math.NaN()}}},
			} {
				_, gotErr := m.DynamicPower(bad)
				_, wantErr := gridDynamicPower(m, bad)
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() ||
					errors.Is(gotErr, ErrOvercommit) != errors.Is(wantErr, ErrOvercommit) ||
					errors.Is(gotErr, vm.ErrStateRange) != errors.Is(wantErr, vm.ErrStateRange) {
					t.Fatalf("%s/%s %+v: error %v, oracle %v", prof.Name, policy, bad, gotErr, wantErr)
				}
			}
		}
	}
}

// TestDynamicPowerZeroAlloc pins the ground-truth power at zero
// allocations, on the widest profile.
func TestDynamicPowerZeroAlloc(t *testing.T) {
	m, err := New(DenseProfile(), Spread)
	if err != nil {
		t.Fatal(err)
	}
	loads := randomLoads(rand.New(rand.NewSource(1)), m.prof.LogicalCores())
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.DynamicPower(loads); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DynamicPower allocates %v times per call, want 0", allocs)
	}
}

func TestThreadPlacementPackVsSpread(t *testing.T) {
	prof := XeonProfile()
	pack, _ := New(prof, Pack)
	spread, _ := New(prof, Spread)

	packGrid, err := threadUtilizations(pack, []Load{load1(1), load1(1)})
	if err != nil {
		t.Fatal(err)
	}
	if packGrid[0][0] != 1 || packGrid[0][1] != 1 {
		t.Fatalf("pack must place siblings on core 0: %v", packGrid[0])
	}
	spreadGrid, err := threadUtilizations(spread, []Load{load1(1), load1(1)})
	if err != nil {
		t.Fatal(err)
	}
	if spreadGrid[0][0] != 1 || spreadGrid[1][0] != 1 || spreadGrid[0][1] != 0 {
		t.Fatalf("spread must place on cores 0 and 1: %v %v", spreadGrid[0], spreadGrid[1])
	}
}

func TestOvercommit(t *testing.T) {
	m, _ := New(PentiumProfile(), Pack) // 4 logical cores
	loads := []Load{{VCPUs: 5, MemoryGB: 1, DiskGB: 8, State: vm.State{vm.CPU: 1}}}
	if _, err := m.DynamicPower(loads); !errors.Is(err, ErrOvercommit) {
		t.Fatalf("want ErrOvercommit, got %v", err)
	}
}

func TestLoadValidation(t *testing.T) {
	m, _ := New(XeonProfile(), Pack)
	if _, err := m.DynamicPower([]Load{{VCPUs: 0, State: vm.State{}}}); err == nil {
		t.Fatal("want vCPU validation error")
	}
	bad := Load{VCPUs: 1, MemoryGB: 1, DiskGB: 1, State: vm.State{vm.CPU: 2}}
	if _, err := m.DynamicPower([]Load{bad}); !errors.Is(err, vm.ErrStateRange) {
		t.Fatalf("want state range error, got %v", err)
	}
}

func TestMemoryDiskPower(t *testing.T) {
	m, _ := New(XeonProfile(), Pack)
	base, err := m.DynamicPower([]Load{load1(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	mem := load1(0.5)
	mem.MemoryGB = 16 // half the machine's 32 GB
	mem.State[vm.Memory] = 1
	withMem, err := m.DynamicPower([]Load{mem})
	if err != nil {
		t.Fatal(err)
	}
	// Memory at full activity on half the machine memory: +4·0.5 = 2 W.
	if math.Abs((withMem-base)-2) > 1e-9 {
		t.Fatalf("memory power delta = %g, want 2", withMem-base)
	}
	disk := load1(0.5)
	disk.State[vm.DiskIO] = 0.5
	withDisk, err := m.DynamicPower([]Load{disk})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((withDisk-base)-1.5) > 1e-9 {
		t.Fatalf("disk power delta = %g, want 1.5", withDisk-base)
	}
}

func TestWorthFunc(t *testing.T) {
	m, _ := New(XeonProfile(), Pack)
	catalog := vm.Catalog{{ID: 0, Name: "t", VCPUs: 1, MemoryGB: 1, DiskGB: 8}}
	set, err := vm.NewSet(catalog, []vm.VM{{Type: 0}, {Type: 0}})
	if err != nil {
		t.Fatal(err)
	}
	states := []vm.State{{vm.CPU: 1}, {vm.CPU: 1}}
	worth, err := m.WorthFunc(set, states)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := worth(vm.EmptyCoalition)
	if err != nil {
		t.Fatal(err)
	}
	if empty != 0 {
		t.Fatalf("v(∅) = %g", empty)
	}
	grand, err := worth(vm.GrandCoalition(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grand-20) > 1e-9 {
		t.Fatalf("v(N) = %g, want 20", grand)
	}
	if _, err := m.WorthFunc(set, states[:1]); err == nil {
		t.Fatal("want state-count error")
	}
}

func TestSchedulerPolicyString(t *testing.T) {
	if Pack.String() != "pack" || Spread.String() != "spread" {
		t.Fatal("policy names wrong")
	}
	if SchedulerPolicy(7).String() == "" {
		t.Fatal("unknown policy must render")
	}
}

// Property: dynamic power is monotone in a VM's CPU utilization and
// bounded by the all-cores-max envelope.
func TestPowerMonotoneProperty(t *testing.T) {
	m, _ := New(XeonProfile(), Pack)
	f := func(rawU1, rawU2 float64) bool {
		u1 := math.Abs(math.Mod(rawU1, 1))
		u2 := math.Abs(math.Mod(rawU2, 1))
		if math.IsNaN(u1) || math.IsNaN(u2) {
			return true
		}
		lo, hi := u1, u2
		if lo > hi {
			lo, hi = hi, lo
		}
		pLo, err1 := m.DynamicPower([]Load{load1(lo), load1(0.4)})
		pHi, err2 := m.DynamicPower([]Load{load1(hi), load1(0.4)})
		if err1 != nil || err2 != nil {
			return false
		}
		return pHi >= pLo-1e-9 && pHi >= 0 && pHi < 1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: power is sub-additive across VMs under Pack placement — the
// coalition never draws more than the sum of its parts run separately.
func TestPowerSubadditiveProperty(t *testing.T) {
	m, _ := New(XeonProfile(), Pack)
	f := func(rawU1, rawU2 float64) bool {
		u1 := math.Abs(math.Mod(rawU1, 1))
		u2 := math.Abs(math.Mod(rawU2, 1))
		if math.IsNaN(u1) || math.IsNaN(u2) {
			return true
		}
		solo1, err1 := m.DynamicPower([]Load{load1(u1)})
		solo2, err2 := m.DynamicPower([]Load{load1(u2)})
		both, err3 := m.DynamicPower([]Load{load1(u1), load1(u2)})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return both <= solo1+solo2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
