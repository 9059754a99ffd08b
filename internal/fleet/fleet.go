// Package fleet scales the power accounting from one machine to a
// datacenter: it places VMs onto a pool of independently metered hosts
// (first-fit decreasing by vCPU, the classic consolidation heuristic the
// paper's Sec. I datacenter context implies), runs one estimation
// pipeline per host, and rolls allocations up per VM and per tenant. The
// per-host games are independent, so by the Additivity axiom a tenant's
// datacenter-wide power is simply the sum of its VMs' per-host Shapley
// shares.
//
// Step is fault-isolated: each host's estimator carries its own
// degradation ladder (see internal/core), and a host whose estimator
// turns terminal is quarantined — its VMs reported as unaccounted, the
// rest of the fleet still ticking — and periodically probed for
// readmission. Hosts are calibrated, advanced and estimated concurrently
// by one bounded worker pool, but each host owns its state and every
// rollup sum is accumulated in fixed host order after the fan-in, so the
// models and every Tick are a deterministic function of the fleet's seed
// and fault schedule at any Parallelism.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/faults"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/par"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// VMRequest asks for one VM in the fleet.
type VMRequest struct {
	// Name is the VM's fleet-unique name.
	Name string
	// Tenant owns the VM for billing rollups.
	Tenant string
	// Type is the Table IV catalog type.
	Type vm.TypeID
	// Workload is a benchmark name from the workload catalog (empty =
	// idle until bound later).
	Workload string
	// WorkloadSeed seeds the benchmark.
	WorkloadSeed int64
}

// Config describes the host pool.
type Config struct {
	// Hosts is the number of physical machines. Default 1.
	Hosts int
	// Profile is the machine profile (default XeonProfile). Hosts place
	// vCPUs with machine.Pack.
	Profile machine.Profile
	// Seed drives meters, collection workloads and benchmarks.
	Seed int64
	// MeterNoise is each wall meter's Gaussian sigma in watts, following
	// the meter.SimOptions convention: 0 is a noiseless meter, negative
	// is rejected by New. (Earlier revisions defaulted 0 to 0.25 W and
	// used negative as the disable sentinel, which made zero noise
	// inexpressible; callers that want the old default now say 0.25.)
	MeterNoise float64
	// CalibrationTicks is the per-combination offline sample count.
	CalibrationTicks int
	// Parallelism bounds the one worker pool that both Calibrate and
	// Step fan hosts out to, following par.Workers: 0 runs serial,
	// negative uses all cores (GOMAXPROCS), >= 2 uses that many workers,
	// the calling goroutine among them. Models and tick contents are
	// bit-for-bit identical at any setting.
	Parallelism int
	// TickInterval is the wall-clock duration one Step covers; the energy
	// rollups integrate watts × interval per tick. 0 defaults to 1 s (the
	// historical cadence); negative is rejected.
	TickInterval time.Duration
	// QuarantineProbeTicks is the readmission probe cadence: a
	// quarantined host is re-estimated every this many ticks (a probe
	// that succeeds readmits the host that same tick). 0 defaults to 5;
	// negative disables probing (quarantine is then permanent).
	QuarantineProbeTicks int
	// MeterRetries, HoldoverTicks and StuckThreshold are forwarded to
	// every host's core.Config (zero values take the core defaults), so
	// the whole pool shares one degradation ladder.
	MeterRetries   int
	HoldoverTicks  int
	StuckThreshold int
}

// HostState is one host's place in the fleet degradation ladder.
type HostState int

const (
	// HostHealthy means the last tick produced a fresh allocation.
	HostHealthy HostState = iota
	// HostDegraded means the last tick produced a degraded allocation
	// (holdover) — still counted in the rollups.
	HostDegraded
	// HostQuarantined means the host's estimator returned an error (it
	// exhausted its degradation ladder); its VMs are unaccounted until a
	// readmission probe succeeds.
	HostQuarantined
	// HostDraining means a planned maintenance drain is in progress
	// (DrainHost): VMs are migrating away or stopped. The host is still
	// metered and estimated — drain is maintenance, not degradation.
	HostDraining
	// HostDrained means the drain completed: nothing runs on the host, its
	// meter reads pure idle, and it is safe to take down. UndrainHost
	// readmits it.
	HostDrained
)

// String names the state ("healthy", "degraded", "quarantined",
// "draining", "drained").
func (s HostState) String() string {
	switch s {
	case HostHealthy:
		return "healthy"
	case HostDegraded:
		return "degraded"
	case HostQuarantined:
		return "quarantined"
	case HostDraining:
		return "draining"
	case HostDrained:
		return "drained"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// HostStatus is one host's view of a fleet tick.
type HostStatus struct {
	// Host is the index into the fleet's non-empty host list (the same
	// index Placement reports).
	Host int
	// State is the host's place in the degradation ladder after this tick.
	State HostState
	// Reason explains a degraded or quarantined state ("" when healthy).
	Reason string
	// MeterLost marks a quarantine caused by a ladder-terminal error
	// (core.Terminal), as opposed to an incidental estimation failure.
	MeterLost bool
	// QuarantinedTicks is how long the host has been quarantined
	// (0 outside quarantine).
	QuarantinedTicks int
	// HoldoverAgeTicks and RejectedSamples mirror the host allocation's
	// degradation bookkeeping (zero for quarantined hosts, which have no
	// allocation).
	HoldoverAgeTicks int
	RejectedSamples  int
	// MeasuredWatts and DynamicWatts are the host's contribution to the
	// fleet totals this tick (zero for quarantined hosts).
	MeasuredWatts float64
	DynamicWatts  float64
	// Tier is the solver tier that produced the host's allocation
	// (core.TierExact and friends; "" for quarantined hosts).
	Tier string
	// VMs are the names placed on this host, in request order.
	VMs []string
}

// Lifecycle event types, as carried by Tick.Events. Every roster or
// drain mutation produces exactly one edge-triggered event, drained into
// exactly one Tick, so a journal consumer sees each event once in
// sequence order.
const (
	// EventPowerOn / EventPowerOff mark a VM's running flag actually
	// flipping (StartVM on a running VM emits nothing).
	EventPowerOn  = "vm_poweron"
	EventPowerOff = "vm_poweroff"
	// EventHotplug marks a VM added past the static roster (AddVM);
	// EventRemove marks a permanent removal (RemoveVM).
	EventHotplug = "vm_hotplug"
	EventRemove  = "vm_remove"
	// EventMigrateStart opens a live migration's copy window;
	// EventMigrateFinish closes it — at cutover, or with an "aborted: ..."
	// detail when the destination was lost mid-copy.
	EventMigrateStart  = "migrate_start"
	EventMigrateFinish = "migrate_finish"
	// EventDrainStart / EventDrainFinish bracket a planned maintenance
	// drain; EventUndrain marks the readmission.
	EventDrainStart  = "drain_start"
	EventDrainFinish = "drain_finish"
	EventUndrain     = "undrain"
)

// LifecycleEvent is one roster/drain transition that took effect on a
// tick. Subject is a VM name or "host:<i>".
type LifecycleEvent struct {
	Type    string
	Subject string
	Detail  string
}

// MigrationStatus is one live migration's ledger entry for a tick inside
// its copy window: both hosts meter the VM, and the entry carries the
// per-side components so auditors can prove the VM's PerVM total counts
// each host's share exactly once.
type MigrationStatus struct {
	// Name is the migrating VM; From and To the source and destination
	// host indices.
	Name string
	From int
	To   int
	// CopyTick is the 1-based progress through the window of CopyTicks
	// double-metered ticks.
	CopyTick  int
	CopyTicks int
	// FromWatts and ToWatts are the components each side's game
	// attributed this tick (valid when the matching *Accounted is true —
	// a quarantined side contributes nothing).
	FromWatts     float64
	ToWatts       float64
	FromAccounted bool
	ToAccounted   bool
}

// migration is an active copy window: the VM runs on both hosts from
// tick startTick+1 through startTick+copyTicks, and cuts over to the
// destination before tick startTick+copyTicks+1 estimates.
type migration struct {
	name      string
	from, to  int
	fromLocal vm.ID
	toLocal   vm.ID
	startTick int
	copyTicks int
}

// drainState tracks one host's planned maintenance drain.
type drainState struct {
	migrated int      // VMs sent away via live migration
	stopped  []string // VMs stopped in place (no viable target); restarted on undrain
}

// placement records where a VM lives now. A removed VM keeps its record
// (energy history outlives the roster) but leaves every live list.
type placement struct {
	host    int
	local   vm.ID
	req     VMRequest
	removed bool
	mig     *migration // non-nil while a copy window is open
}

// hostRuntime is the fleet's per-host degradation bookkeeping.
type hostRuntime struct {
	state         HostState
	reason        string
	terminal      bool
	quarantinedAt int // fleet tick the quarantine began
	lastProbe     int // fleet tick of the last readmission attempt
}

// Fleet is a pool of accounted hosts.
type Fleet struct {
	hosts      []*hypervisor.Host
	estimators []*core.Estimator
	meters     []meter.Meter
	perHost    [][]string // live VM names per host, admission order
	byName     map[string]*placement
	order      []string // every VM ever admitted, admission order

	workers    int
	probeEvery int
	emptyHosts int

	// Mutable stepping state. Step must be driven from a single
	// goroutine (it advances host clocks); the worker pool inside Step
	// only ever touches disjoint hosts. The lifecycle mutators (StartVM,
	// StopVM, AddVM, RemoveVM, MigrateVM, DrainHost, UndrainHost) follow
	// the InjectFaults contract: call them between Steps, never
	// concurrently with one.
	ticks       int
	states      []hostRuntime
	quarantines int
	readmits    int
	dt          float64 // seconds one Step covers
	elapsed     float64 // seconds integrated so far
	energyWs    map[string]float64
	degradedWs  map[string]float64

	pending    []LifecycleEvent // events awaiting the next Tick
	migrations []*migration     // open copy windows, start order
	drains     map[int]*drainState
	migDone    int // completed (cut-over) migrations
	migAborted int // migrations aborted at cutover (destination lost)
}

// Tick is one datacenter-wide estimation step.
type Tick struct {
	// Tick is the fleet step counter (1 for the first Step).
	Tick int
	// PerVM is each accounted VM's attributed dynamic power, keyed by
	// name. VMs on quarantined hosts are absent (see Unaccounted), not
	// zero — a zero would be indistinguishable from an idle VM.
	PerVM map[string]float64
	// PerTenant sums PerVM by tenant.
	PerTenant map[string]float64
	// MeasuredTotal is the sum of the meter readings of the hosts that
	// produced an allocation this tick. Quarantined hosts contribute
	// nothing (their meters are lost), and empty hosts are never metered
	// at all — their idle draw is invisible to the fleet; see
	// IdleUnmeteredHosts.
	MeasuredTotal float64
	// DynamicTotal is the idle-deducted sum the accounted shares add up to.
	DynamicTotal float64
	// Degraded is true when any host is degraded or quarantined this
	// tick. Energy integrated from degraded ticks is tracked separately
	// (DegradedEnergyWhByTenant) so bills can exclude or annotate it.
	Degraded bool
	// DegradedHosts and QuarantinedHosts count hosts by state.
	DegradedHosts    int
	QuarantinedHosts int
	// DrainingHosts and DrainedHosts count hosts in planned maintenance —
	// deliberately excluded from Degraded: a drain is operator intent,
	// not a fault.
	DrainingHosts int
	DrainedHosts  int
	// NewQuarantines and Readmits count state transitions on this tick.
	NewQuarantines int
	Readmits       int
	// IdleUnmeteredHosts is the number of empty hosts in the pool: they
	// draw idle power but host no game and no meter, so that draw is not
	// part of MeasuredTotal.
	IdleUnmeteredHosts int
	// Unaccounted lists the VMs (admission order) with no allocation this
	// tick: every host carrying them is quarantined.
	Unaccounted []string
	// Hosts is every non-empty host's status this tick, in host order.
	Hosts []HostStatus
	// Events are the lifecycle events that took effect on this tick, in
	// application order. Each event appears in exactly one Tick.
	Events []LifecycleEvent
	// Migrations is this tick's live-migration ledger: one entry per VM
	// inside its copy window, with per-side watt components. A VM listed
	// by two hosts without an entry here is an accounting bug
	// (AuditConservation flags it).
	Migrations []MigrationStatus
}

// New builds the fleet: places the requested VMs, constructs one host +
// meter + estimator per machine, and binds workloads. VMs start running.
func New(cfg Config, reqs []VMRequest) (*Fleet, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = machine.XeonProfile()
	}
	if cfg.MeterNoise < 0 {
		return nil, fmt.Errorf("fleet: negative meter noise %g (0 means noiseless)", cfg.MeterNoise)
	}
	if cfg.QuarantineProbeTicks == 0 {
		cfg.QuarantineProbeTicks = 5
	}
	if cfg.TickInterval < 0 {
		return nil, fmt.Errorf("fleet: negative tick interval %v", cfg.TickInterval)
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = time.Second
	}
	if len(reqs) == 0 {
		return nil, errors.New("fleet: no VM requests")
	}
	catalog := vm.PaperCatalog()

	// Validate requests and compute sizes.
	seen := make(map[string]bool, len(reqs))
	type sized struct {
		req   VMRequest
		vcpus int
	}
	items := make([]sized, 0, len(reqs))
	for _, r := range reqs {
		if r.Name == "" {
			return nil, errors.New("fleet: VM request with empty name")
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("fleet: duplicate VM name %q", r.Name)
		}
		seen[r.Name] = true
		t, err := catalog.ByID(r.Type)
		if err != nil {
			return nil, fmt.Errorf("fleet: VM %q: %w", r.Name, err)
		}
		items = append(items, sized{req: r, vcpus: t.VCPUs})
	}

	// First-fit decreasing placement by vCPUs (ties broken by name so
	// placement is deterministic).
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].vcpus != items[j].vcpus {
			return items[i].vcpus > items[j].vcpus
		}
		return items[i].req.Name < items[j].req.Name
	})
	capacity := cfg.Profile.LogicalCores()
	free := make([]int, cfg.Hosts)
	for i := range free {
		free[i] = capacity
	}
	perHost := make([][]VMRequest, cfg.Hosts)
	for _, it := range items {
		placed := false
		for h := 0; h < cfg.Hosts; h++ {
			if free[h] >= it.vcpus {
				perHost[h] = append(perHost[h], it.req)
				free[h] -= it.vcpus
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("%w: VM %q needs %d vCPUs, no host has room",
				machine.ErrOvercommit, it.req.Name, it.vcpus)
		}
	}

	f := &Fleet{
		byName:     make(map[string]*placement, len(reqs)),
		energyWs:   make(map[string]float64, len(reqs)),
		degradedWs: make(map[string]float64),
		drains:     make(map[int]*drainState),
		workers:    par.Workers(cfg.Parallelism),
		probeEvery: cfg.QuarantineProbeTicks,
		dt:         cfg.TickInterval.Seconds(),
	}
	for h := 0; h < cfg.Hosts; h++ {
		if len(perHost[h]) == 0 {
			// Empty hosts draw idle power but host no game and no meter;
			// the fleet reports them via Tick.IdleUnmeteredHosts.
			f.emptyHosts++
			continue
		}
		mach, err := machine.New(cfg.Profile, machine.Pack)
		if err != nil {
			return nil, err
		}
		vms := make([]vm.VM, len(perHost[h]))
		for i, r := range perHost[h] {
			vms[i] = vm.VM{Name: r.Name, Type: r.Type}
		}
		set, err := vm.NewSet(catalog, vms)
		if err != nil {
			return nil, err
		}
		host, err := hypervisor.NewHost(mach, set)
		if err != nil {
			return nil, err
		}
		m, err := meter.NewSim(host.PowerSource(), meter.SimOptions{
			NoiseStdDev: cfg.MeterNoise,
			Resolution:  0.1,
			Seed:        cfg.Seed + int64(h)*7919,
		})
		if err != nil {
			return nil, err
		}
		est, err := core.New(host, m, core.Config{
			OfflineTicksPerCombo: cfg.CalibrationTicks,
			Seed:                 cfg.Seed + int64(h),
			MeterRetries:         cfg.MeterRetries,
			HoldoverTicks:        cfg.HoldoverTicks,
			StuckThreshold:       cfg.StuckThreshold,
		})
		if err != nil {
			return nil, err
		}
		hostIdx := len(f.hosts)
		f.hosts = append(f.hosts, host)
		f.estimators = append(f.estimators, est)
		f.meters = append(f.meters, m)
		names := make([]string, len(perHost[h]))
		for i, r := range perHost[h] {
			f.byName[r.Name] = &placement{host: hostIdx, local: vm.ID(i), req: r}
			names[i] = r.Name
		}
		f.perHost = append(f.perHost, names)
	}
	f.states = make([]hostRuntime, len(f.hosts))
	// Stable reporting order: request order.
	for _, r := range reqs {
		f.order = append(f.order, r.Name)
	}
	return f, nil
}

// Hosts returns the number of non-empty hosts in the pool.
func (f *Fleet) Hosts() int { return len(f.hosts) }

// EmptyHosts returns the number of hosts that received no VMs: they draw
// idle power but are not metered or accounted.
func (f *Fleet) EmptyHosts() int { return f.emptyHosts }

// Ticks returns the number of Steps taken so far.
func (f *Fleet) Ticks() int { return f.ticks }

// Transitions returns the cumulative quarantine and readmission counts.
func (f *Fleet) Transitions() (quarantines, readmits int) {
	return f.quarantines, f.readmits
}

// VMNames returns every live (non-removed) VM name in admission order.
func (f *Fleet) VMNames() []string {
	out := make([]string, 0, len(f.order))
	for _, name := range f.order {
		if !f.byName[name].removed {
			out = append(out, name)
		}
	}
	return out
}

// HasVM reports whether a live VM with the name exists.
func (f *Fleet) HasVM(name string) bool {
	p, ok := f.byName[name]
	return ok && !p.removed
}

// VMRunning reports whether a live VM is currently running (during a
// copy window: on its source host).
func (f *Fleet) VMRunning(name string) (bool, error) {
	p, err := f.vmRecord(name)
	if err != nil {
		return false, err
	}
	return f.hosts[p.host].IsRunning(p.local)
}

// VMTenant returns a live VM's tenant.
func (f *Fleet) VMTenant(name string) (string, error) {
	p, err := f.vmRecord(name)
	if err != nil {
		return "", err
	}
	return p.req.Tenant, nil
}

// VMSpec returns the request a live VM was admitted with (autoscalers
// clone it for scale-out twins).
func (f *Fleet) VMSpec(name string) (VMRequest, error) {
	p, err := f.vmRecord(name)
	if err != nil {
		return VMRequest{}, err
	}
	return p.req, nil
}

// Tenants returns the sorted distinct tenant names, including tenants
// whose VMs were all removed — their energy history persists.
func (f *Fleet) Tenants() []string {
	seen := make(map[string]bool)
	var out []string
	for _, name := range f.order {
		t := f.byName[name].req.Tenant
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Placement returns each live VM's host index (during a copy window: the
// source host, until cutover).
func (f *Fleet) Placement() map[string]int {
	out := make(map[string]int, len(f.byName))
	for name, p := range f.byName {
		if !p.removed {
			out[name] = p.host
		}
	}
	return out
}

// ActiveMigrations returns the number of open copy windows.
func (f *Fleet) ActiveMigrations() int { return len(f.migrations) }

// MigrationTotals returns the cumulative completed and aborted
// live-migration counts.
func (f *Fleet) MigrationTotals() (done, aborted int) {
	return f.migDone, f.migAborted
}

// States returns every non-empty host's current state (as of the last
// Step; all healthy before the first). Not safe concurrently with Step.
func (f *Fleet) States() []HostStatus {
	out := make([]HostStatus, len(f.states))
	for i := range f.states {
		out[i] = f.hostStatus(i, nil)
	}
	return out
}

// InjectFaults wraps host h's meter in the deterministic seeded fault
// injector (package faults) and returns the injector so the driving loop
// can arm it and advance its episode clock (NextTick once per fleet
// Step). Call between construction and stepping, never concurrently with
// Step; the injector starts disarmed, so Calibrate still sees the clean
// meter.
func (f *Fleet) InjectFaults(h int, opts faults.Options) (*faults.Meter, error) {
	if h < 0 || h >= len(f.hosts) {
		return nil, fmt.Errorf("fleet: host %d out of range [0,%d)", h, len(f.hosts))
	}
	fm, err := faults.Wrap(f.meters[h], opts)
	if err != nil {
		return nil, err
	}
	if err := f.estimators[h].SetMeter(fm); err != nil {
		return nil, err
	}
	f.meters[h] = fm
	return fm, nil
}

// Calibrate runs the offline collection phase on every host, then
// binds the VMs' workloads and starts them. Each host owns its machine,
// meter, PRNG streams and model, so the hosts calibrate concurrently on
// Step's worker pool (Config.Parallelism) and every model is the same at
// any setting. Every host is calibrated; an error names the lowest
// failing host.
func (f *Fleet) Calibrate() error {
	errs := make([]error, len(f.estimators))
	par.For(len(f.estimators), f.workers, func(i int) { errs[i] = f.estimators[i].CollectOffline() })
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fleet: host %d: %w", i, err)
		}
	}
	// Bind workloads and start everything.
	for _, name := range f.order {
		p := f.byName[name]
		if p.req.Workload == "" {
			continue
		}
		gen, err := workload.ByName(p.req.Workload, p.req.WorkloadSeed)
		if err != nil {
			return fmt.Errorf("fleet: VM %q: %w", name, err)
		}
		if err := f.hosts[p.host].Attach(p.local, gen); err != nil {
			return err
		}
	}
	for _, host := range f.hosts {
		host.SetAll(true)
	}
	return nil
}

// note queues a lifecycle event for the next Tick.
func (f *Fleet) note(typ, subject, detail string) {
	f.pending = append(f.pending, LifecycleEvent{Type: typ, Subject: subject, Detail: detail})
}

// vmRecord resolves a live VM by name.
func (f *Fleet) vmRecord(name string) (*placement, error) {
	p, ok := f.byName[name]
	if !ok || p.removed {
		return nil, fmt.Errorf("fleet: no VM %q", name)
	}
	return p, nil
}

// hostSubject is the journal subject for host h.
func hostSubject(h int) string { return fmt.Sprintf("host:%d", h) }

// checkHost validates a host index.
func (f *Fleet) checkHost(h int) error {
	if h < 0 || h >= len(f.hosts) {
		return fmt.Errorf("fleet: host %d out of range [0,%d)", h, len(f.hosts))
	}
	return nil
}

// StartVM powers a VM on. Starting a running VM is a no-op (no event);
// a real edge queues a vm_poweron event for the next Tick. Starting a VM
// on a draining or drained host is refused — that is what UndrainHost is
// for. Call between Steps.
func (f *Fleet) StartVM(name string) error {
	p, err := f.vmRecord(name)
	if err != nil {
		return err
	}
	if p.mig != nil {
		return fmt.Errorf("fleet: VM %q is mid-migration", name)
	}
	switch f.states[p.host].state {
	case HostDraining, HostDrained:
		return fmt.Errorf("fleet: host %d is %s; undrain it before starting VMs", p.host, f.states[p.host].state)
	}
	running, err := f.hosts[p.host].IsRunning(p.local)
	if err != nil {
		return err
	}
	if running {
		return nil
	}
	if err := f.hosts[p.host].Start(p.local); err != nil {
		return err
	}
	f.note(EventPowerOn, name, "")
	return nil
}

// StopVM powers a VM off. The stopped VM stays a (dummy) player of its
// host's game with φ = exactly 0, so per-tenant energy is conserved
// through the edge by the Dummy axiom alone. Stopping a stopped VM is a
// no-op (no event). Call between Steps.
func (f *Fleet) StopVM(name string) error {
	p, err := f.vmRecord(name)
	if err != nil {
		return err
	}
	if p.mig != nil {
		return fmt.Errorf("fleet: VM %q is mid-migration", name)
	}
	running, err := f.hosts[p.host].IsRunning(p.local)
	if err != nil {
		return err
	}
	if !running {
		return nil
	}
	if err := f.hosts[p.host].Stop(p.local); err != nil {
		return err
	}
	f.note(EventPowerOff, name, "")
	return nil
}

// AddVM hot-plugs a new VM onto a host past the static roster. The host
// must be accounting (healthy or degraded) and must have calibrated the
// VM's VHC class — a class the host never trained cannot be estimated
// there and would quarantine it on the first tick. The VM starts running
// with its workload attached (the trace begins at the attach tick). Call
// between Steps.
func (f *Fleet) AddVM(host int, req VMRequest) error {
	if err := f.checkHost(host); err != nil {
		return err
	}
	if req.Name == "" {
		return errors.New("fleet: VM request with empty name")
	}
	if _, ok := f.byName[req.Name]; ok {
		// Removed names stay reserved: their energy ledger entries live on.
		return fmt.Errorf("fleet: VM name %q already used", req.Name)
	}
	switch st := f.states[host].state; st {
	case HostHealthy, HostDegraded:
	default:
		return fmt.Errorf("fleet: host %d is %s; cannot admit VMs", host, st)
	}
	if !f.estimators[host].CalibratedForClass(req.Type) {
		return fmt.Errorf("fleet: host %d never calibrated VM type %d; cannot estimate %q there", host, req.Type, req.Name)
	}
	var gen workload.Generator
	if req.Workload != "" {
		var err error
		gen, err = workload.ByName(req.Workload, req.WorkloadSeed)
		if err != nil {
			return fmt.Errorf("fleet: VM %q: %w", req.Name, err)
		}
	}
	local, err := f.hosts[host].AddVM(vm.VM{Name: req.Name, Type: req.Type})
	if err != nil {
		return fmt.Errorf("fleet: hot-plug %q: %w", req.Name, err)
	}
	if gen != nil {
		if err := f.hosts[host].Attach(local, gen); err != nil {
			return err
		}
	}
	if err := f.hosts[host].Start(local); err != nil {
		return err
	}
	f.byName[req.Name] = &placement{host: host, local: local, req: req}
	f.perHost[host] = append(f.perHost[host], req.Name)
	f.order = append(f.order, req.Name)
	f.note(EventHotplug, req.Name, fmt.Sprintf("%s tenant=%s type=%d", hostSubject(host), req.Tenant, req.Type))
	return nil
}

// RemoveVM permanently removes a VM: its host slot is retired (a stopped
// dummy forever, vCPUs released), its accrued energy stays in the tenant
// ledger, and its name stays reserved. Call between Steps.
func (f *Fleet) RemoveVM(name string) error {
	p, err := f.vmRecord(name)
	if err != nil {
		return err
	}
	if p.mig != nil {
		return fmt.Errorf("fleet: VM %q is mid-migration", name)
	}
	if err := f.hosts[p.host].Retire(p.local); err != nil {
		return err
	}
	f.perHost[p.host] = removeName(f.perHost[p.host], name)
	p.removed = true
	f.note(EventRemove, name, hostSubject(p.host))
	return nil
}

// MigrateVM live-migrates a VM: a twin slot is hot-plugged on the
// destination and runs alongside the source for copyTicks ticks — the
// copy window, during which both hosts genuinely draw power for the VM
// and both games attribute it (the double-accounting window the ledger
// makes explicit). Before the next tick after the window the source slot
// is retired and the VM's identity moves to the destination; its energy
// counter, keyed by name, never resets. A stopped VM (or copyTicks 0)
// cold-migrates: no window, cutover before the next tick.
//
// The destination must be accounting (healthy or degraded), have spare
// vCPU capacity, and have calibrated the VM's class. Call between Steps.
func (f *Fleet) MigrateVM(name string, to int, copyTicks int) error {
	p, err := f.vmRecord(name)
	if err != nil {
		return err
	}
	if err := f.checkHost(to); err != nil {
		return err
	}
	if p.mig != nil {
		return fmt.Errorf("fleet: VM %q is already migrating", name)
	}
	if to == p.host {
		return fmt.Errorf("fleet: VM %q is already on host %d", name, to)
	}
	if copyTicks < 0 {
		return fmt.Errorf("fleet: negative copy window %d", copyTicks)
	}
	switch st := f.states[to].state; st {
	case HostHealthy, HostDegraded:
	default:
		return fmt.Errorf("fleet: destination host %d is %s", to, st)
	}
	if !f.estimators[to].CalibratedForClass(p.req.Type) {
		return fmt.Errorf("fleet: host %d never calibrated VM type %d; cannot migrate %q there", to, p.req.Type, name)
	}
	running, err := f.hosts[p.host].IsRunning(p.local)
	if err != nil {
		return err
	}
	toLocal, err := f.hosts[to].AddVM(vm.VM{Name: name, Type: p.req.Type})
	if err != nil {
		return fmt.Errorf("fleet: migrate %q to host %d: %w", name, to, err)
	}
	if p.req.Workload != "" {
		gen, err := workload.ByName(p.req.Workload, p.req.WorkloadSeed)
		if err != nil {
			return err
		}
		if err := f.hosts[to].Attach(toLocal, gen); err != nil {
			return err
		}
	}
	if running {
		if err := f.hosts[to].Start(toLocal); err != nil {
			return err
		}
	}
	m := &migration{
		name: name, from: p.host, to: to,
		fromLocal: p.local, toLocal: toLocal,
		startTick: f.ticks, copyTicks: copyTicks,
	}
	if !running {
		m.copyTicks = 0 // cold migration: nothing draws power twice
	}
	p.mig = m
	f.migrations = append(f.migrations, m)
	f.perHost[to] = append(f.perHost[to], name)
	f.note(EventMigrateStart, name, fmt.Sprintf("%s -> %s copy=%d", hostSubject(m.from), hostSubject(m.to), m.copyTicks))
	return nil
}

// DrainHost begins a planned maintenance drain: every VM on the host is
// live-migrated to the first accounting host that fits it (capacity and
// calibrated class), or stopped in place when none does; the host enters
// HostDraining and — once the last outbound copy window closes —
// HostDrained, still metered (its meter then reads pure idle) so the
// fleet's books stay whole. copyTicks is the per-migration copy window.
// Call between Steps.
func (f *Fleet) DrainHost(h int, copyTicks int) error {
	if err := f.checkHost(h); err != nil {
		return err
	}
	if copyTicks < 0 {
		return fmt.Errorf("fleet: negative copy window %d", copyTicks)
	}
	st := &f.states[h]
	switch st.state {
	case HostQuarantined:
		return fmt.Errorf("fleet: host %d is quarantined; nothing to drain gracefully", h)
	case HostDraining, HostDrained:
		return fmt.Errorf("fleet: host %d is already %s", h, st.state)
	}
	// Inbound copy windows would cut over onto a host being emptied:
	// abort them now (the source copy keeps running, nothing is lost).
	for _, m := range f.migrations {
		if m.to == h {
			f.abortMigration(m, "destination draining")
		}
	}
	f.pruneMigrations()
	st.state = HostDraining
	st.reason = "planned maintenance drain"
	st.terminal = false
	d := &drainState{}
	f.drains[h] = d
	f.note(EventDrainStart, hostSubject(h), "")
	for _, name := range append([]string(nil), f.perHost[h]...) {
		p := f.byName[name]
		if p.removed || p.mig != nil || p.host != h {
			continue // outbound windows empty the host on their own
		}
		migrated := false
		for dst := 0; dst < len(f.hosts) && !migrated; dst++ {
			if dst == h {
				continue
			}
			switch f.states[dst].state {
			case HostHealthy, HostDegraded:
			default:
				continue
			}
			// MigrateVM re-checks class and capacity; a refusal just
			// means "try the next host".
			if err := f.MigrateVM(name, dst, copyTicks); err == nil {
				migrated = true
				d.migrated++
			}
		}
		if migrated {
			continue
		}
		running, err := f.hosts[h].IsRunning(p.local)
		if err != nil {
			return err
		}
		if running {
			if err := f.hosts[h].Stop(p.local); err != nil {
				return err
			}
			d.stopped = append(d.stopped, name)
			f.note(EventPowerOff, name, "drain "+hostSubject(h))
		}
	}
	return nil
}

// UndrainHost readmits a drained host: VMs the drain stopped in place
// are restarted (migrated VMs stay where they landed) and the host
// returns to normal accounting. Call between Steps.
func (f *Fleet) UndrainHost(h int) error {
	if err := f.checkHost(h); err != nil {
		return err
	}
	st := &f.states[h]
	if st.state != HostDrained {
		return fmt.Errorf("fleet: host %d is %s, not drained", h, st.state)
	}
	st.state = HostHealthy
	st.reason = ""
	d := f.drains[h]
	delete(f.drains, h)
	f.note(EventUndrain, hostSubject(h), "")
	if d == nil {
		return nil
	}
	for _, name := range d.stopped {
		p, ok := f.byName[name]
		if !ok || p.removed || p.host != h {
			continue
		}
		if err := f.hosts[h].Start(p.local); err != nil {
			return err
		}
		f.note(EventPowerOn, name, "undrain "+hostSubject(h))
	}
	return nil
}

// finishMigration cuts a migration over: the source slot retires (its
// vCPUs free, its dummy stays), the VM's identity moves to the
// destination, and the copy window closes.
func (f *Fleet) finishMigration(m *migration) {
	p := f.byName[m.name]
	_ = f.hosts[m.from].Retire(m.fromLocal)
	f.perHost[m.from] = removeName(f.perHost[m.from], m.name)
	p.host = m.to
	p.local = m.toLocal
	p.mig = nil
	f.migDone++
	f.note(EventMigrateFinish, m.name, fmt.Sprintf("%s -> %s", hostSubject(m.from), hostSubject(m.to)))
}

// abortMigration tears a copy window down without moving the VM: the
// destination twin retires and the source copy keeps (or resumes) the
// VM's identity. When the source is itself draining, the VM is stopped
// in place — the drain still wants it gone.
func (f *Fleet) abortMigration(m *migration, why string) {
	p := f.byName[m.name]
	_ = f.hosts[m.to].Retire(m.toLocal)
	f.perHost[m.to] = removeName(f.perHost[m.to], m.name)
	p.mig = nil
	f.migAborted++
	f.note(EventMigrateFinish, m.name, fmt.Sprintf("aborted: %s (%s stays)", why, hostSubject(m.from)))
	if f.states[m.from].state == HostDraining {
		if running, err := f.hosts[m.from].IsRunning(m.fromLocal); err == nil && running {
			_ = f.hosts[m.from].Stop(m.fromLocal)
			if d := f.drains[m.from]; d != nil {
				d.stopped = append(d.stopped, m.name)
			}
			f.note(EventPowerOff, m.name, "drain "+hostSubject(m.from))
		}
	}
}

// pruneMigrations drops windows whose placement no longer references
// them (finished or aborted), preserving start order.
func (f *Fleet) pruneMigrations() {
	keep := f.migrations[:0]
	for _, m := range f.migrations {
		if f.byName[m.name].mig == m {
			keep = append(keep, m)
		}
	}
	tail := f.migrations[len(keep):]
	for i := range tail {
		tail[i] = nil
	}
	f.migrations = keep
}

// processLifecycle runs at the top of Step, after the tick counter
// advances but before any host is metered: copy windows that have run
// their copyTicks double-metered ticks cut over (or abort, when the
// destination has been lost to quarantine), and drains whose last
// outbound window closed become HostDrained.
func (f *Fleet) processLifecycle() {
	for _, m := range f.migrations {
		if f.ticks <= m.startTick+m.copyTicks {
			continue // window still open this tick
		}
		if f.states[m.to].state == HostQuarantined {
			f.abortMigration(m, hostSubject(m.to)+" quarantined")
			continue
		}
		f.finishMigration(m)
	}
	f.pruneMigrations()
	for h := range f.states {
		if f.states[h].state != HostDraining {
			continue
		}
		open := false
		for _, m := range f.migrations {
			if m.from == h {
				open = true
				break
			}
		}
		if open {
			continue
		}
		f.states[h].state = HostDrained
		f.states[h].reason = "drained for maintenance"
		d := f.drains[h]
		f.note(EventDrainFinish, hostSubject(h), fmt.Sprintf("%d migrated, %d stopped", d.migrated, len(d.stopped)))
	}
}

// removeName deletes the first occurrence of name, preserving order.
func removeName(list []string, name string) []string {
	for i, n := range list {
		if n == name {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// hostStatus builds host i's status view, folding in its allocation (nil
// for quarantined or unprobed hosts).
func (f *Fleet) hostStatus(i int, a *core.Allocation) HostStatus {
	st := &f.states[i]
	hs := HostStatus{
		Host:      i,
		State:     st.state,
		Reason:    st.reason,
		MeterLost: st.terminal,
		VMs:       append([]string(nil), f.perHost[i]...),
	}
	if st.state == HostQuarantined {
		hs.QuarantinedTicks = f.ticks - st.quarantinedAt
	}
	if a != nil {
		hs.HoldoverAgeTicks = a.HoldoverAgeTicks
		hs.RejectedSamples = a.RejectedSamples
		hs.MeasuredWatts = a.MeasuredPower
		hs.DynamicWatts = a.DynamicPower
		hs.Tier = a.Prov.Tier
	}
	return hs
}

// EnableAudit attaches one invariant auditor (see core.Auditor) to every
// host's estimator. onViolation (nil is fine) receives the host index
// alongside the violation; with Parallelism > 1 it may fire from worker
// goroutines concurrently, so it must be safe for concurrent use. Call
// between construction and stepping.
func (f *Fleet) EnableAudit(cfg core.AuditConfig, onViolation func(host int, v core.AuditViolation)) {
	for i, est := range f.estimators {
		host := i
		var cb func(core.AuditViolation)
		if onViolation != nil {
			cb = func(v core.AuditViolation) { onViolation(host, v) }
		}
		est.SetAuditor(core.NewAuditor(cfg, cb))
	}
}

// AuditConservation cross-checks a Tick's rollups against each other and
// returns one message per violated identity (nil when conserved):
// Σ PerVM = DynamicTotal, Σ PerTenant = Σ PerVM, each host's shares sum
// to its DynamicWatts, and every VM is either accounted or listed in
// Unaccounted with a quarantined host — exactly one of the two.
//
// It also audits the migration ledger: a VM listed by two hosts must have
// a Migrations entry inside its declared copy window (CopyTick in
// [1, CopyTicks]) naming exactly those hosts, and its PerVM total must
// equal the sum of the per-side components each accounted host's game
// attributed — energy counted once per metering host, never twice for the
// same host, never silently dropped.
//
// tol is the absolute slack in watts per comparison (<= 0 uses 1e-6,
// generous against float summation order but far below any real share).
func (f *Fleet) AuditConservation(t *Tick, tol float64) []string {
	if tol <= 0 {
		tol = 1e-6
	}
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	var sumVM float64
	for _, w := range t.PerVM {
		sumVM += w
	}
	if d := sumVM - t.DynamicTotal; d > tol || d < -tol {
		bad("sum(PerVM) = %g W, DynamicTotal = %g W (delta %g)", sumVM, t.DynamicTotal, d)
	}
	var sumTenant float64
	for _, w := range t.PerTenant {
		sumTenant += w
	}
	if d := sumTenant - sumVM; d > tol || d < -tol {
		bad("sum(PerTenant) = %g W, sum(PerVM) = %g W (delta %g)", sumTenant, sumVM, d)
	}

	unaccounted := make(map[string]bool, len(t.Unaccounted))
	for _, name := range t.Unaccounted {
		unaccounted[name] = true
	}

	// Migration ledger: window bounds and the per-VM component identity.
	migBy := make(map[string]MigrationStatus, len(t.Migrations))
	for _, ms := range t.Migrations {
		if _, dup := migBy[ms.Name]; dup {
			bad("VM %q has two migration ledger entries", ms.Name)
		}
		migBy[ms.Name] = ms
		if ms.CopyTick < 1 || ms.CopyTick > ms.CopyTicks {
			bad("migrating VM %q: copy tick %d outside declared window [1,%d]", ms.Name, ms.CopyTick, ms.CopyTicks)
		}
		var want float64
		sides := 0
		if ms.FromAccounted {
			want += ms.FromWatts
			sides++
		}
		if ms.ToAccounted {
			want += ms.ToWatts
			sides++
		}
		got, ok := t.PerVM[ms.Name]
		switch {
		case sides == 0:
			if ok {
				bad("migrating VM %q accounted with neither host accounting", ms.Name)
			}
			if !unaccounted[ms.Name] {
				bad("migrating VM %q: neither host accounting but not listed unaccounted", ms.Name)
			}
		case !ok:
			bad("migrating VM %q: %d host(s) accounting but absent from PerVM", ms.Name, sides)
		default:
			if d := got - want; d > tol || d < -tol {
				bad("migrating VM %q: PerVM = %g W, from+to components = %g W (delta %g)", ms.Name, got, want, d)
			}
		}
	}

	// A VM on two hosts' rosters outside a declared copy window is the
	// double-count the ledger exists to rule out.
	hostedBy := make(map[string]int)
	for _, hs := range t.Hosts {
		for _, name := range hs.VMs {
			hostedBy[name]++
		}
	}
	for name, n := range hostedBy {
		if n > 1 {
			if _, ok := migBy[name]; !ok {
				bad("VM %q hosted by %d hosts with no migration ledger entry", name, n)
			}
		}
	}

	for _, hs := range t.Hosts {
		var hostSum float64
		accounted := 0
		for _, name := range hs.VMs {
			if ms, mig := migBy[name]; mig {
				// Count this host's side component, not the combined PerVM.
				switch hs.Host {
				case ms.From:
					if ms.FromAccounted {
						hostSum += ms.FromWatts
						accounted++
					}
				case ms.To:
					if ms.ToAccounted {
						hostSum += ms.ToWatts
						accounted++
					}
				default:
					bad("migrating VM %q hosted by host %d, outside its %d->%d window", name, hs.Host, ms.From, ms.To)
				}
				continue
			}
			if w, ok := t.PerVM[name]; ok {
				hostSum += w
				accounted++
			}
			inPerVM := !unaccounted[name]
			if _, ok := t.PerVM[name]; ok != inPerVM {
				bad("VM %q: accounted=%v but unaccounted=%v", name, ok, unaccounted[name])
			}
		}
		if hs.State == HostQuarantined {
			if accounted != 0 {
				bad("host %d quarantined but %d of its VMs accounted", hs.Host, accounted)
			}
			continue
		}
		if accounted != len(hs.VMs) {
			bad("host %d %s but only %d/%d VMs accounted", hs.Host, hs.State, accounted, len(hs.VMs))
		}
		if d := hostSum - hs.DynamicWatts; d > tol || d < -tol {
			bad("host %d: sum(shares) = %g W, DynamicWatts = %g W (delta %g)", hs.Host, hostSum, hs.DynamicWatts, d)
		}
	}
	return problems
}

// Step advances every host one tick and aggregates the allocations.
//
// Hosts are advanced and estimated by a bounded worker pool
// (Config.Parallelism), but the aggregation runs after all workers have
// finished, in fixed host order, so every rollup sum — and therefore the
// whole Tick — is bit-for-bit identical at any worker count.
//
// A host whose estimator fails does not abort the fleet tick: the host is
// quarantined (its VMs land in Tick.Unaccounted), and every
// QuarantineProbeTicks the fleet re-tries it; a successful probe readmits
// the host with that tick's allocation. Degraded (holdover) allocations
// are counted in the rollups and flagged per host.
//
// Step must be driven from one goroutine; the returned error is always
// nil today and reserved for conditions that prevent a tick entirely.
func (f *Fleet) Step() (*Tick, error) {
	f.ticks++
	f.processLifecycle()
	n := len(f.hosts)

	// Decide, from pre-fan-out state, which hosts to estimate: every
	// healthy/degraded host, plus quarantined hosts on their probe tick.
	estimate := make([]bool, n)
	for i := range f.states {
		st := &f.states[i]
		if st.state != HostQuarantined {
			estimate[i] = true
			continue
		}
		if f.probeEvery > 0 && f.ticks-st.lastProbe >= f.probeEvery {
			estimate[i] = true
			st.lastProbe = f.ticks
		}
	}

	// Fan out: advance + estimate each host. Hosts are disjoint, so
	// workers never share mutable state; results land at distinct
	// indices.
	allocs := make([]*core.Allocation, n)
	errs := make([]error, n)
	par.For(n, f.workers, func(i int) {
		f.hosts[i].Advance(1)
		if estimate[i] {
			allocs[i], errs[i] = f.estimators[i].EstimateTick()
		}
	})

	// Fan in: state transitions and rollups in fixed host order.
	tick := &Tick{
		Tick:               f.ticks,
		PerVM:              make(map[string]float64, len(f.byName)),
		PerTenant:          make(map[string]float64),
		Hosts:              make([]HostStatus, n),
		IdleUnmeteredHosts: f.emptyHosts,
	}
	for i := 0; i < n; i++ {
		st := &f.states[i]
		switch {
		case errs[i] != nil:
			if st.state != HostQuarantined {
				st.state = HostQuarantined
				st.quarantinedAt = f.ticks
				st.lastProbe = f.ticks
				f.quarantines++
				tick.NewQuarantines++
				// Quarantine abandons any drain in progress: the fault
				// ladder outranks operator intent.
				delete(f.drains, i)
			}
			st.reason = errs[i].Error()
			st.terminal = core.Terminal(errs[i])
		case allocs[i] != nil:
			if st.state == HostQuarantined {
				f.readmits++
				tick.Readmits++
			}
			switch st.state {
			case HostDraining, HostDrained:
				// Drain is maintenance, not degradation: the host keeps its
				// drain state (and reason) while it estimates cleanly.
				st.terminal = false
			default:
				if allocs[i].Degraded {
					st.state = HostDegraded
					st.reason = allocs[i].DegradedReason
				} else {
					st.state = HostHealthy
					st.reason = ""
				}
				st.terminal = false
			}
		default:
			// Quarantined and not probed this tick: state carries over.
		}
		tick.Hosts[i] = f.hostStatus(i, allocs[i])
		if a := allocs[i]; a != nil {
			tick.MeasuredTotal += a.MeasuredPower
			tick.DynamicTotal += a.DynamicPower
		}
		switch st.state {
		case HostDegraded:
			tick.DegradedHosts++
		case HostQuarantined:
			tick.QuarantinedHosts++
		case HostDraining:
			tick.DrainingHosts++
		case HostDrained:
			tick.DrainedHosts++
		}
	}
	tick.Degraded = tick.DegradedHosts+tick.QuarantinedHosts > 0

	for _, name := range f.order {
		p := f.byName[name]
		if p.removed {
			continue
		}
		var w, degW float64
		accounted, degraded := false, false
		if a := allocs[p.host]; a != nil {
			cw := a.PerVM[int(p.local)]
			w += cw
			accounted = true
			if a.Degraded {
				degraded = true
				degW += cw
			}
		}
		if m := p.mig; m != nil {
			// Copy window: the VM also draws on the destination this tick,
			// and that side's game attributes its share. The ledger entry
			// carries both components so auditors can prove PerVM counts
			// each host exactly once.
			ms := MigrationStatus{
				Name: name, From: m.from, To: m.to,
				CopyTick: f.ticks - m.startTick, CopyTicks: m.copyTicks,
			}
			if a := allocs[m.from]; a != nil {
				ms.FromWatts = a.PerVM[int(m.fromLocal)]
				ms.FromAccounted = true
			}
			if a := allocs[m.to]; a != nil {
				cw := a.PerVM[int(m.toLocal)]
				ms.ToWatts = cw
				ms.ToAccounted = true
				w += cw
				accounted = true
				if a.Degraded {
					degraded = true
					degW += cw
				}
			}
			tick.Migrations = append(tick.Migrations, ms)
		}
		if !accounted {
			tick.Unaccounted = append(tick.Unaccounted, name)
			continue
		}
		tick.PerVM[name] = w
		tick.PerTenant[p.req.Tenant] += w
		// Watt-seconds = watts × the real tick interval; "+= w" would bake
		// in a 1 Hz assumption and mis-bill any other cadence.
		f.energyWs[name] += w * f.dt
		if degraded {
			f.degradedWs[name] += degW * f.dt
		}
	}
	f.elapsed += f.dt
	tick.Events = f.pending
	f.pending = nil
	return tick, nil
}

// Run performs n steps, invoking fn after each (false stops early).
func (f *Fleet) Run(n int, fn func(*Tick) bool) error {
	for i := 0; i < n; i++ {
		tick, err := f.Step()
		if err != nil {
			return err
		}
		if fn != nil && !fn(tick) {
			return nil
		}
	}
	return nil
}

// ElapsedSeconds is the total wall-clock time integrated into the energy
// rollups so far: ticks × TickInterval, as real seconds.
func (f *Fleet) ElapsedSeconds() float64 { return f.elapsed }

// TickSeconds is the wall-clock time one Step covers (Config.TickInterval,
// as real seconds): the dt every energy rollup integrates a tick's watts
// over.
func (f *Fleet) TickSeconds() float64 { return f.dt }

// EnergyWhByTenant returns cumulative attributed energy per tenant in
// watt-hours since the fleet started stepping, including energy from
// degraded ticks (see DegradedEnergyWhByTenant for that slice alone).
func (f *Fleet) EnergyWhByTenant() map[string]float64 {
	out := make(map[string]float64)
	// Accumulate in admission order, not map order: float sums must be
	// bit-identical run to run for the determinism guarantees to hold.
	for _, name := range f.order {
		if ws, ok := f.energyWs[name]; ok {
			out[f.byName[name].req.Tenant] += ws / 3600
		}
	}
	return out
}

// DegradedEnergyWhByTenant returns the portion of each tenant's
// cumulative energy that was integrated from degraded (holdover) host
// ticks — the watt-hours a bill might exclude or annotate
// as reduced-confidence. Tenants with no degraded energy are absent.
func (f *Fleet) DegradedEnergyWhByTenant() map[string]float64 {
	out := make(map[string]float64)
	for _, name := range f.order {
		if ws, ok := f.degradedWs[name]; ok {
			out[f.byName[name].req.Tenant] += ws / 3600
		}
	}
	return out
}
