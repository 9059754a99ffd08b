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
	prof   Profile
	policy SchedulerPolicy
}

// New builds a Machine, validating the profile.
func New(prof Profile, policy SchedulerPolicy) (*Machine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if policy != Pack && policy != Spread {
		return nil, fmt.Errorf("machine: unknown scheduler policy %d", int(policy))
	}
	return &Machine{prof: prof, policy: policy}, nil
}

// Profile returns the machine's profile.
func (m *Machine) Profile() Profile { return m.prof }

// placement returns the position at which the scheduler fills thread t
// of physical core c: the k-th vCPU placed, in load order, runs there.
// For a fixed thread it grows with the core under both policies.
func (m *Machine) placement(c, t int) int {
	if m.policy == Spread {
		return t*m.prof.PhysicalCores + c
	}
	return c*m.prof.ThreadsPerCore + t
}

// vcpuCursor walks the loads' vCPUs in placement order: the first vCPU
// of loads[li] is placed at position first.
type vcpuCursor struct{ li, first int }

// util returns the CPU state of the vCPU placed at position k, or 0 when
// none is. k must not decrease from one call to the next.
func (c *vcpuCursor) util(loads []Load, k int) float64 {
	for c.li < len(loads) && c.first+loads[c.li].VCPUs <= k {
		c.first += loads[c.li].VCPUs
		c.li++
	}
	if c.li == len(loads) {
		return 0
	}
	return loads[c.li].State[vm.CPU]
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
// noise). It places the loads' vCPUs onto logical cores in load order
// under the scheduler policy, each running at its load's CPU state (the
// mean utilization across the VM's vCPUs), and sums the physical cores'
// power in core order. It returns ErrOvercommit when Σ vCPUs exceeds the
// logical core count, and allocates nothing when it succeeds.
func (m *Machine) DynamicPower(loads []Load) (float64, error) {
	placed := 0
	for li, l := range loads {
		if l.VCPUs <= 0 {
			return 0, fmt.Errorf("machine: load %d has %d vCPUs", li, l.VCPUs)
		}
		if err := l.State.Validate(); err != nil {
			return 0, fmt.Errorf("machine: load %d: %w", li, err)
		}
		if placed += l.VCPUs; placed > m.prof.LogicalCores() {
			return 0, fmt.Errorf("%w: need > %d", ErrOvercommit, m.prof.LogicalCores())
		}
	}
	// One cursor per thread number finds each logical core's vCPU, since
	// a thread's placement position grows with its core.
	var cursors [2]vcpuCursor // Profile.Validate allows 1 or 2 threads a core
	var threads [2]float64
	tpc := m.prof.ThreadsPerCore
	var cpu float64
	active := 0
	for c := 0; c < m.prof.PhysicalCores; c++ {
		for t := 0; t < tpc; t++ {
			threads[t] = cursors[t].util(loads, m.placement(c, t))
		}
		p := m.corePower(threads[:tpc])
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
