// Package hypervisor simulates the prototype's virtualization host
// (Citrix XenServer in the paper, Sec. VI-B): it owns a VM set on a
// simulated physical machine, binds workloads to VMs, advances a 1 Hz
// clock, and collects per-VM component states each tick the way the
// paper's dstat-based collector does (Sec. VI-C), quantized to the
// configured normalizing resolution (0.01 in the evaluation).
package hypervisor

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// DefaultResolution is the paper's normalizing resolution for state data.
const DefaultResolution = 0.01

// Option configures a Host.
type Option func(*Host)

// WithResolution sets the state quantization resolution (<=0 disables).
func WithResolution(r float64) Option {
	return func(h *Host) { h.resolution = r }
}

// Host is a simulated hypervisor host.
type Host struct {
	mach       *machine.Machine
	set        *vm.Set
	resolution float64

	mu        sync.Mutex
	tick      int
	running   []bool
	workloads []workload.Generator
	epochs    []int     // tick at which each VM's workload was attached
	cpuLimits []float64 // per-VM CPU ceiling, 0..1 (1 = unthrottled)
	retired   []bool    // permanently stopped slots (removed/migrated-away VMs)

	// states is the current tick's collected states, valid while
	// collected is true (see statesLocked). Every mutator clears
	// collected.
	states    []vm.State
	collected bool
	// loads is TruePower's reused load buffer.
	loads []machine.Load
}

// NewHost builds a host for the VM set on the machine. All VMs start
// stopped with no workload attached (idle when started).
func NewHost(mach *machine.Machine, set *vm.Set, opts ...Option) (*Host, error) {
	if mach == nil {
		return nil, errors.New("hypervisor: nil machine")
	}
	if set == nil || set.Len() == 0 {
		return nil, errors.New("hypervisor: empty VM set")
	}
	// Reject sets that could never run together: the paper pins one vCPU
	// per logical core.
	total := 0
	for i := 0; i < set.Len(); i++ {
		t, err := set.TypeOf(vm.ID(i))
		if err != nil {
			return nil, err
		}
		total += t.VCPUs
	}
	if total > mach.Profile().LogicalCores() {
		return nil, fmt.Errorf("%w: set needs %d vCPUs, machine has %d logical cores",
			machine.ErrOvercommit, total, mach.Profile().LogicalCores())
	}
	h := &Host{
		mach:       mach,
		set:        set,
		resolution: DefaultResolution,
		running:    make([]bool, set.Len()),
		workloads:  make([]workload.Generator, set.Len()),
		epochs:     make([]int, set.Len()),
		cpuLimits:  make([]float64, set.Len()),
		retired:    make([]bool, set.Len()),
	}
	for i := range h.cpuLimits {
		h.cpuLimits[i] = 1
	}
	for _, opt := range opts {
		opt(h)
	}
	return h, nil
}

// Set returns the VM set.
func (h *Host) Set() *vm.Set { return h.set }

// Machine returns the underlying simulated machine.
func (h *Host) Machine() *machine.Machine { return h.mach }

// Resolution returns the state quantization resolution.
func (h *Host) Resolution() float64 { return h.resolution }

// Attach binds a workload generator to a VM (nil detaches; the VM then
// idles when running). The workload starts from its own tick 0 at attach
// time: the collector passes generators ticks relative to the attach
// instant, so a recorded trace or a phased benchmark begins at its
// beginning regardless of the host clock.
func (h *Host) Attach(id vm.ID, g workload.Generator) error {
	if _, err := h.set.VM(id); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retired[int(id)] {
		return fmt.Errorf("hypervisor: VM %d is retired", int(id))
	}
	h.workloads[int(id)] = g
	h.epochs[int(id)] = h.tick
	h.collected = false
	return nil
}

// Start boots a VM. Starting a running VM is a no-op; starting a retired
// slot is an error (the VM left this host for good).
func (h *Host) Start(id vm.ID) error {
	if _, err := h.set.VM(id); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.retired[int(id)] {
		return fmt.Errorf("hypervisor: VM %d is retired", int(id))
	}
	h.running[int(id)] = true
	h.collected = false
	return nil
}

// Stop shuts a VM down. Stopping a stopped VM is a no-op.
func (h *Host) Stop(id vm.ID) error {
	if _, err := h.set.VM(id); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.running[int(id)] = false
	h.collected = false
	return nil
}

// SetCoalition starts exactly the VMs in mask and stops the rest
// (retired slots stay stopped whatever the mask says), for callers that
// enumerate coalitions. A mask addresses only the first vm.MaxPlayers
// VMs; SetRunning and SetAll reach every VM.
func (h *Host) SetCoalition(mask vm.Coalition) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.running {
		h.running[i] = mask.Contains(vm.ID(i)) && !h.retired[i]
	}
	h.collected = false
}

// SetRunning starts exactly the VMs with running[i] true and stops the
// rest, at any set size. Retired slots stay stopped.
func (h *Host) SetRunning(running []bool) error {
	if len(running) != h.set.Len() {
		return fmt.Errorf("hypervisor: %d running flags for %d VMs", len(running), h.set.Len())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, r := range running {
		h.running[i] = r && !h.retired[i]
	}
	h.collected = false
	return nil
}

// SetAll starts every VM (running true) or stops every VM, at any set
// size. Retired slots stay stopped.
func (h *Host) SetAll(running bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.running {
		h.running[i] = running && !h.retired[i]
	}
	h.collected = false
}

// activeVCPUsLocked sums the vCPUs of the non-retired slots — the
// capacity AddVM checks against: a retired VM's pinned cores are free
// again, a merely stopped VM's are not (it may boot back any tick).
func (h *Host) activeVCPUsLocked() (int, error) {
	total := 0
	for i := 0; i < h.set.Len(); i++ {
		if h.retired[i] {
			continue
		}
		t, err := h.set.TypeOf(vm.ID(i))
		if err != nil {
			return 0, err
		}
		total += t.VCPUs
	}
	return total, nil
}

// AddVM hot-plugs a VM past the static roster: the set grows by one slot
// and the per-VM vectors grow with it. The new VM starts stopped with no
// workload, exactly like a NewHost VM; capacity is checked against the
// non-retired slots (the paper pins one vCPU per logical core). The
// caller owns invalidating anything compiled against the old set width
// (worth plans, scratch tables). Not safe concurrently with Collect or
// estimation; mutate between ticks.
func (h *Host) AddVM(v vm.VM) (vm.ID, error) {
	t, err := h.set.Catalog().ByID(v.Type)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	active, err := h.activeVCPUsLocked()
	if err != nil {
		return 0, err
	}
	if active+t.VCPUs > h.mach.Profile().LogicalCores() {
		return 0, fmt.Errorf("%w: adding %d vCPUs to %d active, machine has %d logical cores",
			machine.ErrOvercommit, t.VCPUs, active, h.mach.Profile().LogicalCores())
	}
	id, err := h.set.Append(v)
	if err != nil {
		return 0, err
	}
	h.running = append(h.running, false)
	h.workloads = append(h.workloads, nil)
	h.epochs = append(h.epochs, 0)
	h.cpuLimits = append(h.cpuLimits, 1)
	h.retired = append(h.retired, false)
	h.collected = false
	return id, nil
}

// Retire permanently removes a VM from the host's live roster: the slot
// is stopped, its workload detached, and its vCPUs released for AddVM
// capacity. The dense ID space is preserved (running flags and PerVM
// indices stay aligned), so the slot lingers as a stopped dummy — exact
// Shapley gives it φ = 0 forever. Retiring a retired slot is a no-op.
func (h *Host) Retire(id vm.ID) error {
	if _, err := h.set.VM(id); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.running[int(id)] = false
	h.workloads[int(id)] = nil
	h.retired[int(id)] = true
	h.collected = false
	return nil
}

// IsRunning reports whether a VM is currently running.
func (h *Host) IsRunning(id vm.ID) (bool, error) {
	if _, err := h.set.VM(id); err != nil {
		return false, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.running[int(id)], nil
}

// SetCPULimit caps a VM's CPU utilization at frac (0..1], the way a
// hypervisor's credit scheduler enforces a per-VM cap. The limit applies
// to the state the collector reports (and hence to the power the VM can
// draw); 1 removes the cap.
func (h *Host) SetCPULimit(id vm.ID, frac float64) error {
	if _, err := h.set.VM(id); err != nil {
		return err
	}
	if frac <= 0 || frac > 1 {
		return fmt.Errorf("hypervisor: CPU limit %g outside (0,1]", frac)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cpuLimits[int(id)] = frac
	h.collected = false
	return nil
}

// CPULimit returns a VM's current CPU ceiling (1 when unthrottled).
func (h *Host) CPULimit(id vm.ID) (float64, error) {
	if _, err := h.set.VM(id); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cpuLimits[int(id)], nil
}

// Running returns a copy of the running flags, one per VM (true =
// running).
func (h *Host) Running() []bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]bool(nil), h.running...)
}

// Advance moves the host clock forward by n ticks (1 tick = 1 s).
func (h *Host) Advance(n int) {
	if n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tick += n
	h.collected = false
}

// Clock returns the current tick.
func (h *Host) Clock() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tick
}

// Snapshot is one tick's collected host state: what the paper's collector
// forwards to the estimation framework.
type Snapshot struct {
	// Tick is the host clock at collection time.
	Tick int
	// Running is the running set, the grand coalition N of the tick's
	// game: one flag per VM (true = running), at any set size.
	Running []bool
	// States holds every VM's component state (stopped VMs are zero),
	// quantized to the host resolution.
	States []vm.State
}

// Collect returns the current tick's snapshot. Stopped VMs report a zero
// state; running VMs report their workload's state at the current tick
// (idle if no workload is attached), quantized to the host resolution.
// The snapshot's slices belong to the caller.
func (h *Host) Collect() Snapshot {
	var snap Snapshot
	h.CollectInto(&snap)
	return snap
}

// CollectInto is Collect into snap, reusing the capacity of its slices,
// so a loop that collects every tick allocates only while they grow.
func (h *Host) CollectInto(snap *Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap.Tick = h.tick
	snap.Running = append(snap.Running[:0], h.running...)
	snap.States = append(snap.States[:0], h.statesLocked()...)
}

// statesLocked returns the current tick's states, collecting them on the
// first call after a mutation and from the memo after that. Generators
// are pure in (seed, tick), so the memo is exactly what a fresh
// collection would return. The caller holds h.mu and must not keep the
// slice past it.
func (h *Host) statesLocked() []vm.State {
	if h.collected {
		return h.states
	}
	n := h.set.Len()
	h.states = slices.Grow(h.states[:0], n)[:n]
	clear(h.states)
	for i := range h.states {
		if !h.running[i] {
			continue
		}
		if g := h.workloads[i]; g != nil {
			s := g.StateAt(h.tick - h.epochs[i])
			if limit := h.cpuLimits[i]; s[vm.CPU] > limit {
				s[vm.CPU] = limit
			}
			h.states[i] = s.Quantize(h.resolution)
		}
	}
	h.collected = true
	return h.states
}

// LoadsFor builds machine loads, in VM ID order, for an arbitrary running
// set (one flag per VM) and state assignment.
func (h *Host) LoadsFor(running []bool, states []vm.State) ([]machine.Load, error) {
	if len(states) != h.set.Len() {
		return nil, fmt.Errorf("hypervisor: %d states for %d VMs", len(states), h.set.Len())
	}
	if len(running) != h.set.Len() {
		return nil, fmt.Errorf("hypervisor: %d running flags for %d VMs", len(running), h.set.Len())
	}
	return h.appendLoads(make([]machine.Load, 0, len(running)), running, states)
}

// appendLoads appends the loads of the running VMs to dst in VM ID order.
func (h *Host) appendLoads(dst []machine.Load, running []bool, states []vm.State) ([]machine.Load, error) {
	for i, r := range running {
		if !r {
			continue
		}
		t, err := h.set.TypeOf(vm.ID(i))
		if err != nil {
			return nil, err
		}
		dst = append(dst, machine.Load{
			VCPUs:    t.VCPUs,
			MemoryGB: t.MemoryGB,
			DiskGB:   t.DiskGB,
			State:    states[i],
		})
	}
	return dst, nil
}

// TruePower returns the machine's current total wall power (including
// idle) — what a perfect meter would read right now.
func (h *Host) TruePower() (float64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	loads, err := h.appendLoads(h.loads[:0], h.running, h.statesLocked())
	if err != nil {
		return 0, err
	}
	h.loads = loads
	return h.mach.Power(loads)
}

// PowerSource adapts the host to a meter.PowerSource, so a SimMeter can
// "plug into" the simulated machine the way the prototype's wall meter
// plugs into server A.
func (h *Host) PowerSource() meter.PowerSource {
	return h.TruePower
}

// DynamicPowerFor returns the ground-truth dynamic power (idle deducted)
// of a running set (one flag per VM) under the given states — what a
// perfect meter would attribute to those VMs.
func (h *Host) DynamicPowerFor(running []bool, states []vm.State) (float64, error) {
	loads, err := h.LoadsFor(running, states)
	if err != nil {
		return 0, err
	}
	return h.mach.DynamicPower(loads)
}
