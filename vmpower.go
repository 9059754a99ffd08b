// Package vmpower is a from-scratch reproduction of "Virtual Machine
// Power Accounting with Shapley Value" (Jiang, Liu, Tang, Wu, Jin —
// ICDCS 2017): fair disaggregation of a physical machine's measured power
// into per-VM shares using the non-deterministic Shapley value with a
// VHC-based linear approximation of the coalition worth function.
//
// The package is the public facade over the internal substrates (machine
// simulator, hypervisor, power meter, VHC approximator, cooperative-game
// engine). A typical session mirrors the paper's framework (Fig. 8):
//
//	sys, _ := vmpower.New(vmpower.Config{
//	    Machine: vmpower.Xeon16,
//	    VMs: []vmpower.VMSpec{
//	        {Name: "web", Type: vmpower.Small},
//	        {Name: "db", Type: vmpower.Large},
//	    },
//	})
//	_ = sys.Calibrate()                  // offline v(S,C) collection
//	_ = sys.RunWorkload("web", "gcc", 1) // bind workloads
//	_ = sys.RunWorkload("db", "omnetpp", 2)
//	sys.StartAll()
//	alloc, _ := sys.Step()               // one 1 Hz estimation tick
//	fmt.Println(alloc.Watts("web"), alloc.Watts("db"))
//
// For direct access to the cooperative-game primitives, see ExactShapley
// and MonteCarloShapley.
package vmpower

import (
	"errors"
	"fmt"
	"io"

	"vmpower/internal/capping"
	"vmpower/internal/core"
	"vmpower/internal/faults"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/replay"
	"vmpower/internal/shapley"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// MachineModel selects the simulated physical machine profile.
type MachineModel int

const (
	// Xeon16 is the paper's prototype: a 16-core hyper-threaded Xeon
	// idling at 138 W (Sec. VI-B).
	Xeon16 MachineModel = iota
	// Pentium is the paper's second measurement machine (Sec. III-A).
	Pentium
)

// VMType is a fixed VM configuration from the paper's Table IV catalog.
type VMType int

// The Table IV instance types.
const (
	Small  VMType = iota // VM1: 1 vCPU, 2 GB
	Medium               // VM2: 2 vCPUs, 4 GB
	Large                // VM3: 4 vCPUs, 8 GB
	XLarge               // VM4: 8 vCPUs, 14 GB
)

// VMSpec declares one VM in the system.
type VMSpec struct {
	// Name is the VM's unique name (used to address it in the API).
	Name string
	// Type is its Table IV configuration.
	Type VMType
}

// Config describes a simulated power-accounting deployment.
type Config struct {
	// Machine selects the physical machine profile. Default Xeon16.
	Machine MachineModel
	// VMs lists the deployment's virtual machines.
	VMs []VMSpec
	// Seed drives every random element (collection workloads, meter
	// noise, Monte-Carlo sampling). Runs with equal seeds are identical.
	Seed int64
	// MeterNoise is the wall meter's Gaussian sigma in watts. Negative
	// disables noise; zero uses the evaluation's 0.25 W.
	MeterNoise float64
	// CalibrationTicks is the per-VHC-combination offline sample count.
	// Zero uses the evaluation's 200.
	CalibrationTicks int
	// IdleAttribution adds an idle-power share to each allocation:
	// "none" (default), "equal" or "proportional" (Sec. VIII).
	IdleAttribution string
	// Parallelism is the Shapley engine's worker count: 0 (default)
	// runs serial like the paper's pipeline, negative uses all cores,
	// N >= 2 uses N workers. Allocations are identical for a fixed Seed
	// at any setting — parallelism only changes wall-clock time.
	Parallelism int
}

// System is a simulated deployment with its estimation pipeline.
type System struct {
	host      *hypervisor.Host
	estimator *core.Estimator
	m         meter.Meter
	byName    map[string]vm.ID
	names     []string
	seed      int64
	recorder  *replay.Writer
	capper    *capping.Controller

	injector      *faults.Meter
	injectorArmed bool
}

// Allocation is one tick's per-VM power attribution.
type Allocation struct {
	inner *core.Allocation
	sys   *System
}

// New builds a System from the config.
func New(cfg Config) (*System, error) {
	if len(cfg.VMs) == 0 {
		return nil, errors.New("vmpower: config lists no VMs")
	}
	var prof machine.Profile
	switch cfg.Machine {
	case Xeon16:
		prof = machine.XeonProfile()
	case Pentium:
		prof = machine.PentiumProfile()
	default:
		return nil, fmt.Errorf("vmpower: unknown machine model %d", int(cfg.Machine))
	}
	mach, err := machine.New(prof, machine.Pack)
	if err != nil {
		return nil, err
	}

	catalog := vm.PaperCatalog()
	vms := make([]vm.VM, len(cfg.VMs))
	byName := make(map[string]vm.ID, len(cfg.VMs))
	names := make([]string, len(cfg.VMs))
	for i, spec := range cfg.VMs {
		if spec.Name == "" {
			return nil, fmt.Errorf("vmpower: VM %d has no name", i)
		}
		if _, dup := byName[spec.Name]; dup {
			return nil, fmt.Errorf("vmpower: duplicate VM name %q", spec.Name)
		}
		if spec.Type < Small || spec.Type > XLarge {
			return nil, fmt.Errorf("vmpower: VM %q has unknown type %d", spec.Name, int(spec.Type))
		}
		vms[i] = vm.VM{Name: spec.Name, Type: vm.TypeID(spec.Type)}
		byName[spec.Name] = vm.ID(i)
		names[i] = spec.Name
	}
	set, err := vm.NewSet(catalog, vms)
	if err != nil {
		return nil, err
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		return nil, err
	}

	noise := cfg.MeterNoise
	switch {
	case noise < 0:
		noise = 0
	case noise == 0:
		noise = 0.25
	}
	m, err := meter.NewSim(host.PowerSource(), meter.SimOptions{
		NoiseStdDev: noise,
		Resolution:  0.1,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	var attribution core.IdleAttribution
	switch cfg.IdleAttribution {
	case "", "none":
		attribution = core.IdleNone
	case "equal":
		attribution = core.IdleEqual
	case "proportional":
		attribution = core.IdleProportional
	default:
		return nil, fmt.Errorf("vmpower: unknown idle attribution %q", cfg.IdleAttribution)
	}
	est, err := core.New(host, m, core.Config{
		OfflineTicksPerCombo: cfg.CalibrationTicks,
		Seed:                 cfg.Seed,
		IdleAttribution:      attribution,
		Parallelism:          cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &System{host: host, estimator: est, m: m, byName: byName, names: names, seed: cfg.Seed}, nil
}

// InjectFaults wraps the system's wall meter in the deterministic seeded
// fault injector (package faults): scripted dropout/stuck-at/spike/NaN
// episodes plus independent per-sample faults. The injector stays disarmed
// — transparent — until the first Step, so Calibrate always sees the clean
// meter; from then on the online pipeline rides the chaos through its
// retry, plausibility-gate and holdover machinery, flagging degraded
// ticks on the resulting Allocations.
func (s *System) InjectFaults(opts faults.Options) error {
	if s.injector != nil {
		return errors.New("vmpower: fault injection already active")
	}
	fm, err := faults.Wrap(s.m, opts)
	if err != nil {
		return err
	}
	if err := s.estimator.SetMeter(fm); err != nil {
		return err
	}
	s.injector = fm
	return nil
}

// FaultCounts reports the faults injected so far (zero without
// InjectFaults).
func (s *System) FaultCounts() faults.Counts {
	if s.injector == nil {
		return faults.Counts{}
	}
	return s.injector.Injected()
}

// VMNames returns the configured VM names in declaration order.
func (s *System) VMNames() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

func (s *System) id(name string) (vm.ID, error) {
	id, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("vmpower: unknown VM %q", name)
	}
	return id, nil
}

// Calibrate runs the paper's offline data-collection phase: it measures
// the idle power, sweeps every VHC combination under the synthetic
// workload and fits the v(S,C) approximation. It must be called once
// before Step. All VMs are stopped afterwards.
func (s *System) Calibrate() error {
	return s.estimator.CollectOffline()
}

// Calibrated reports whether Calibrate has completed.
func (s *System) Calibrated() bool { return s.estimator.Trained() }

// SaveCalibration persists the trained model (idle power + mapping
// vectors) as JSON so later processes can skip the offline phase.
func (s *System) SaveCalibration(w io.Writer) error { return s.estimator.SaveModel(w) }

// LoadCalibration restores a calibration written by SaveCalibration in a
// system with the same VM catalog layout; Step works immediately after.
func (s *System) LoadCalibration(r io.Reader) error { return s.estimator.LoadModel(r) }

// IdlePower returns the machine idle power established by Calibrate.
func (s *System) IdlePower() float64 { return s.estimator.IdlePower() }

// Workloads lists the built-in benchmark names accepted by RunWorkload
// (the paper's Table V suite plus the synthetic and floatpoint loads).
func Workloads() []string { return workload.Names() }

// RunWorkload binds a named benchmark to a VM (replacing any previous
// binding) and starts the VM. Benchmarks are deterministic in seed.
func (s *System) RunWorkload(vmName, benchmark string, seed int64) error {
	id, err := s.id(vmName)
	if err != nil {
		return err
	}
	gen, err := workload.ByName(benchmark, seed)
	if err != nil {
		return err
	}
	if err := s.host.Attach(id, gen); err != nil {
		return err
	}
	return s.host.Start(id)
}

// RunWorkloadTrace binds a recorded utilization trace to a VM and starts
// it. The CSV has one row per second with 1–3 columns (cpu[, mem[,
// disk]]) in [0, 1]; loop wraps the trace, otherwise the last sample
// holds. This is the substitution point for production telemetry.
func (s *System) RunWorkloadTrace(vmName, label string, csvData io.Reader, loop bool) error {
	id, err := s.id(vmName)
	if err != nil {
		return err
	}
	tr, err := workload.TraceFromCSV(label, csvData)
	if err != nil {
		return err
	}
	tr.Loop = loop
	if err := s.host.Attach(id, tr); err != nil {
		return err
	}
	return s.host.Start(id)
}

// Stop shuts a VM down (an idle VM draws no power — the paper's Remark 1).
func (s *System) Stop(vmName string) error {
	id, err := s.id(vmName)
	if err != nil {
		return err
	}
	return s.host.Stop(id)
}

// StartAll boots every VM.
func (s *System) StartAll() { s.host.SetAll(true) }

// StopAll shuts every VM down.
func (s *System) StopAll() { s.host.SetAll(false) }

// Step advances the simulated clock one second and performs one online
// estimation tick: collect VM states, read the meter, disaggregate the
// measured power with the non-deterministic Shapley value.
func (s *System) Step() (*Allocation, error) {
	if s.injector != nil && !s.injectorArmed {
		s.injector.SetArmed(true)
		s.injectorArmed = true
	}
	s.host.Advance(1)
	alloc, err := s.estimator.EstimateTick()
	if s.injector != nil {
		// Keep the injector's episode clock in lockstep with estimation
		// ticks regardless of how many retry samples the tick consumed.
		s.injector.NextTick()
	}
	if err != nil {
		return nil, err
	}
	if s.recorder != nil {
		if err := s.recorder.WriteSnapshot(s.host.Collect(), alloc.MeasuredPower); err != nil {
			return nil, err
		}
	}
	if s.capper != nil {
		if _, err := s.capper.Observe(alloc); err != nil {
			return nil, err
		}
	}
	return &Allocation{inner: alloc, sys: s}, nil
}

// SetPowerCap installs a power cap (watts of attributed dynamic power)
// on a VM — the introduction's per-VM power-capping application. From the
// next Step on, a closed control loop throttles the VM's CPU ceiling
// whenever its Shapley share exceeds the cap and releases it when load
// drops, leaving all other VMs untouched.
func (s *System) SetPowerCap(vmName string, watts float64) error {
	id, err := s.id(vmName)
	if err != nil {
		return err
	}
	if s.capper == nil {
		ctrl, err := capping.New(s.host)
		if err != nil {
			return err
		}
		s.capper = ctrl
	}
	return s.capper.SetCap(id, watts)
}

// RemovePowerCap removes a VM's power cap and lifts its CPU throttle.
func (s *System) RemovePowerCap(vmName string) error {
	id, err := s.id(vmName)
	if err != nil {
		return err
	}
	if s.capper == nil {
		return nil
	}
	return s.capper.RemoveCap(id)
}

// StartRecording streams each subsequent Step's telemetry — running
// coalition, per-VM states and the measured power — to w as a replay
// trace (JSON lines). Call StopRecording to flush before closing w.
func (s *System) StartRecording(w io.Writer) error {
	if w == nil {
		return errors.New("vmpower: nil recording writer")
	}
	if s.recorder != nil {
		return errors.New("vmpower: recording already active")
	}
	s.recorder = replay.NewWriter(w)
	return nil
}

// StopRecording flushes and detaches the active recorder. It is a no-op
// when no recording is active.
func (s *System) StopRecording() error {
	if s.recorder == nil {
		return nil
	}
	err := s.recorder.Flush()
	s.recorder = nil
	return err
}

// Replay re-estimates a recorded trace with this system's calibrated
// estimator, invoking fn per allocation (false stops early). The trace's
// VM count must match this system's. The simulated clock is not advanced
// — the records carry their own timestamps and states — so replay can
// re-disaggregate historical telemetry under, e.g., a different idle
// attribution policy.
func (s *System) Replay(r io.Reader, fn func(*Allocation) bool) error {
	recs, err := replay.Read(r)
	if err != nil {
		return err
	}
	return replay.Replay(s.estimator, recs, func(inner *core.Allocation) bool {
		if fn == nil {
			return true
		}
		return fn(&Allocation{inner: inner, sys: s})
	})
}

// Run performs n Step calls, invoking fn after each. fn may be nil; a
// false return stops early.
func (s *System) Run(n int, fn func(*Allocation) bool) error {
	for i := 0; i < n; i++ {
		alloc, err := s.Step()
		if err != nil {
			return err
		}
		if fn != nil && !fn(alloc) {
			return nil
		}
	}
	return nil
}

// Tick returns the allocation's simulation timestamp (seconds).
func (a *Allocation) Tick() int { return a.inner.Tick }

// MeasuredPower returns the meter reading (total wall power, W).
func (a *Allocation) MeasuredPower() float64 { return a.inner.MeasuredPower }

// DynamicPower returns the idle-deducted power that was disaggregated.
func (a *Allocation) DynamicPower() float64 { return a.inner.DynamicPower }

// Watts returns the named VM's dynamic power share Φ_i (plus its idle
// share when idle attribution is configured). Unknown names return 0.
func (a *Allocation) Watts(vmName string) float64 {
	id, ok := a.sys.byName[vmName]
	if !ok {
		return 0
	}
	return a.inner.Total(id)
}

// Shares returns every VM's attributed power keyed by name.
func (a *Allocation) Shares() map[string]float64 {
	out := make(map[string]float64, len(a.sys.names))
	for _, name := range a.sys.names {
		out[name] = a.Watts(name)
	}
	return out
}

// Method reports how the Shapley value was computed: "exact" (in closed
// form, whenever the running VMs' groups of equal class and state span
// at most 2^22 count vectors — any 22 VMs, or hundreds that repeat —
// and past that whenever the search for coalitions served off the
// linear model finishes within 1,024 steps, as on 24 VMs on distinct
// SPEC traces) or "montecarlo" (hosts of up to 24 VMs whose search runs
// past that).
func (a *Allocation) Method() string { return a.inner.Method }

// Degraded reports whether this tick was served from a held-over meter
// sample instead of a fresh plausible reading.
func (a *Allocation) Degraded() bool { return a.inner.Degraded }

// DegradedReason explains a degraded tick ("" when not degraded).
func (a *Allocation) DegradedReason() string { return a.inner.DegradedReason }

// HoldoverAge returns how many ticks old the meter sample behind this
// allocation is (0 for a fresh reading).
func (a *Allocation) HoldoverAge() int { return a.inner.HoldoverAgeTicks }

// ---- cooperative-game primitives ----

// WorthFunc gives the worth (aggregated power, W) of a player subset
// encoded as a bitmask: bit i set means player i participates.
type WorthFunc func(members uint32) float64

// ExactShapley computes the exact Shapley value (the paper's Eq. 4) of an
// n-player game by full 2^n enumeration (n <= 24; the paper bounds
// practical n at 16).
func ExactShapley(n int, worth WorthFunc) ([]float64, error) {
	if worth == nil {
		return nil, shapley.ErrNilWorth
	}
	return shapley.Exact(n, func(s vm.Coalition) float64 {
		return worth(uint32(s))
	})
}

// MonteCarloShapley estimates the Shapley value by permutation sampling —
// the tractable path for n > 16. The estimate is exactly efficient
// (shares sum to worth(all) − worth(none)). It returns the estimate and
// its per-player standard errors. Sampling runs on all cores, so worth
// must be safe for concurrent calls; the estimate depends only on seed.
func MonteCarloShapley(n int, worth WorthFunc, permutations int, seed int64) (phi, stderr []float64, err error) {
	if worth == nil {
		return nil, nil, shapley.ErrNilWorth
	}
	res, err := shapley.MonteCarlo(n, func(s vm.Coalition) float64 {
		return worth(uint32(s))
	}, shapley.MCOptions{Permutations: permutations, Seed: seed, Parallelism: -1})
	if err != nil {
		return nil, nil, err
	}
	return res.Phi, res.StdErr, nil
}
