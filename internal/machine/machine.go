package machine

import (
	"fmt"
	"math"

	"vmpower/internal/vm"
)

// SchedulerPolicy selects how vCPUs are placed onto logical cores.
type SchedulerPolicy int

const (
	// Pack fills both hyperthreads of a physical core before moving to
	// the next core (core0.t0, core0.t1, core1.t0, ...). This is the
	// placement under which the paper's contention phenomenon appears:
	// two 1-vCPU VMs land on sibling threads.
	Pack SchedulerPolicy = iota
	// Spread fills one thread per physical core first, then the sibling
	// threads (core0.t0, core1.t0, ..., core0.t1, ...).
	Spread
)

// String names the policy.
func (p SchedulerPolicy) String() string {
	switch p {
	case Pack:
		return "pack"
	case Spread:
		return "spread"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Load is one running VM as the machine sees it: its resource shape and
// its current component state.
type Load struct {
	// VCPUs is the VM's vCPU count (each pinned to one logical core).
	VCPUs int
	// MemoryGB and DiskGB are the VM's configured resources, used to
	// weight the memory/disk power terms.
	MemoryGB int
	DiskGB   int
	// State is the VM's current component-state vector.
	State vm.State
}

// Machine is a simulated physical machine: a profile plus a scheduler
// policy. Machine is immutable after New and safe for concurrent use;
// the time-stepped wrapper lives in the hypervisor package.
type Machine struct {
	prof Profile
	// slots is the placement order of the logical cores under the
	// policy, built once by New.
	slots []threadSlot
}

// New builds a Machine, validating the profile.
func New(prof Profile, policy SchedulerPolicy) (*Machine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if policy != Pack && policy != Spread {
		return nil, fmt.Errorf("machine: unknown scheduler policy %d", int(policy))
	}
	return &Machine{prof: prof, slots: slotOrder(prof, policy)}, nil
}

// Profile returns the machine's profile.
func (m *Machine) Profile() Profile { return m.prof }

// threadSlot identifies a logical core as (physical core, thread).
type threadSlot struct{ core, thread int }

// slotOrder returns the placement order of the profile's logical cores
// under policy.
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

// ThreadUtilizations places the loads' vCPUs onto logical cores in load
// order under the scheduler policy and returns the per-physical-core,
// per-thread utilization grid. Each vCPU of load i runs at the load's CPU
// state (the mean utilization across the VM's vCPUs).
// It returns ErrOvercommit when Σ vCPUs exceeds the logical core count.
func (m *Machine) ThreadUtilizations(loads []Load) ([][]float64, error) {
	// One backing array for the whole grid: a per-core allocation cost the
	// 128-core dense profile 129 allocations per ground-truth evaluation.
	tpc := m.prof.ThreadsPerCore
	cells := make([]float64, m.prof.PhysicalCores*tpc)
	grid := make([][]float64, m.prof.PhysicalCores)
	for i := range grid {
		grid[i] = cells[i*tpc : (i+1)*tpc : (i+1)*tpc]
	}
	slots := m.slots
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

// corePower returns the dynamic power of one physical core given its
// thread utilizations: Uncore·1{busy} + Alpha·Σu − Beta·min(u1, u2).
func (m *Machine) corePower(threads []float64) float64 {
	var sum, minU float64
	minU = math.Inf(1)
	busy := false
	for _, u := range threads {
		sum += u
		if u < minU {
			minU = u
		}
		if u > 0 {
			busy = true
		}
	}
	if !busy {
		return 0
	}
	p := m.prof.UncorePower + m.prof.Alpha*sum
	if len(threads) >= 2 {
		p -= m.prof.Beta * minU
	}
	return p
}

// DynamicPower returns the machine's power above idle for the given
// coalition of loads (the ground-truth v(S, C) of the game, before meter
// noise).
func (m *Machine) DynamicPower(loads []Load) (float64, error) {
	grid, err := m.ThreadUtilizations(loads)
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

// Power returns the machine's total wall power (idle + dynamic).
func (m *Machine) Power(loads []Load) (float64, error) {
	dyn, err := m.DynamicPower(loads)
	if err != nil {
		return 0, err
	}
	return m.prof.IdlePower + dyn, nil
}

// WorthFunc builds the ground-truth coalition worth function v(S, C') for
// a fixed VM set and a fixed per-VM state assignment: the dynamic power of
// the machine when exactly coalition S runs with its members' states.
// Idle members are excluded entirely (Remark 1: an idle VM draws nothing).
// The returned function panics on internal inconsistency only if set and
// states were modified after the call; it is intended for experiment
// oracles and tests where the coalition space is exhaustively enumerated.
func (m *Machine) WorthFunc(set *vm.Set, states []vm.State) (func(vm.Coalition) (float64, error), error) {
	if set.Len() != len(states) {
		return nil, fmt.Errorf("machine: %d states for %d VMs", len(states), set.Len())
	}
	loadsFor := make([]Load, set.Len())
	for i := 0; i < set.Len(); i++ {
		t, err := set.TypeOf(vm.ID(i))
		if err != nil {
			return nil, err
		}
		loadsFor[i] = Load{VCPUs: t.VCPUs, MemoryGB: t.MemoryGB, DiskGB: t.DiskGB, State: states[i]}
	}
	return func(s vm.Coalition) (float64, error) {
		loads := make([]Load, 0, s.Size())
		for _, id := range s.Members() {
			loads = append(loads, loadsFor[int(id)])
		}
		return m.DynamicPower(loads)
	}, nil
}
