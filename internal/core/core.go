// Package core implements the paper's Shapley value-based power
// estimation framework (Sec. VI, Fig. 8). An Estimator couples a
// hypervisor host, a power meter and a VHC approximator through the two
// phases of the paper's pipeline:
//
//   - Offline data collecting: traverse the 2^r VHC combinations under the
//     synthetic random-CPU workload, record (state, power) samples in the
//     v(S,C) table and fit the per-combination mapping vectors.
//   - Online real-time estimation: each 1 Hz tick, take the collected VM
//     states and the measured machine power, build the coalition worth
//     function (measured power for the grand coalition — so Efficiency
//     always holds against the meter — and VHC approximations for proper
//     subsets), and run the (non-deterministic) Shapley value to
//     disaggregate power to individual VMs.
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"vmpower/internal/hypervisor"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/par"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// IdleAttribution selects how the machine's idle power is attributed to
// VMs on top of the Shapley shares. The paper leaves this open (Sec. VIII)
// and names the two candidate rules we implement.
type IdleAttribution int

const (
	// IdleNone reports dynamic power only (the paper's evaluation mode).
	IdleNone IdleAttribution = iota
	// IdleEqual splits the idle power equally across running VMs.
	IdleEqual
	// IdleProportional splits the idle power proportionally to the VMs'
	// dynamic Shapley shares.
	IdleProportional
)

// String names the attribution rule.
func (a IdleAttribution) String() string {
	switch a {
	case IdleNone:
		return "none"
	case IdleEqual:
		return "equal"
	case IdleProportional:
		return "proportional"
	default:
		return fmt.Sprintf("attribution(%d)", int(a))
	}
}

// Config tunes an Estimator. The zero value gives the paper's settings.
type Config struct {
	// OfflineTicksPerCombo is the number of 1 Hz samples collected per
	// VHC combination during offline collection. Default 200.
	OfflineTicksPerCombo int
	// IdleMeasureTicks is the number of samples averaged to establish the
	// idle power before collection. Default 30.
	IdleMeasureTicks int
	// Seed drives the synthetic collection workloads and the Monte-Carlo
	// sampler.
	Seed int64
	// IdleAttribution selects the idle-power rule. Default IdleNone.
	IdleAttribution IdleAttribution
	// CollectIdleProb is the probability each VM idles on a collection
	// tick. The paper's collection keeps members busy (0); a small value
	// trades full-coalition accuracy for sub-coalition coverage (only
	// BenchmarkEstimateTick's search arm sets it, to make its tables
	// cover partially active coalitions).
	CollectIdleProb float64
	// Classes optionally compresses an arbitrary type catalog into a
	// small number of VHC classes (Sec. VIII's "applicable scenario"
	// extension; build one with vhc.ClusterTypes). Nil uses the identity
	// map — one VHC per catalog type, the paper's base setting.
	Classes *vhc.ClassMap
	// Parallelism is the worker count of Monte-Carlo sampling and of the
	// deep audit's reference tabulation; the exact tier is serial. It
	// follows par.Workers: 0 runs serial (the paper's single-threaded
	// pipeline), negative uses all cores (GOMAXPROCS), values >= 2 use
	// that many workers. The allocation is a deterministic function of
	// the snapshot and Seed at any setting: the sampler's decomposition
	// never depends on the worker count (see internal/shapley/parallel.go).
	Parallelism int
	// MeterRetries bounds the in-tick meter reads spent riding out
	// dropouts and rejected (implausible) readings before the tick
	// degrades to holdover. Default 32 (the paper's 1 Hz feed loses at
	// most a couple of readings per glitch).
	MeterRetries int
	// HoldoverTicks is the staleness bound of the last-good-sample
	// holdover: when every meter read of a tick fails, the estimator
	// re-serves the last good reading — flagged Degraded — for up to this
	// many ticks before EstimateTick returns ErrMeterLost. 0 defaults to
	// 10; negative disables holdover entirely (any exhausted tick is a
	// terminal error, the pre-resilience semantics).
	HoldoverTicks int
	// StuckThreshold is the consecutive-identical-reading count past
	// which the meter is presumed stuck and further identical readings
	// are rejected as implied dropouts. 0 (the default) disables
	// detection: noiseless simulated meters legitimately repeat readings.
	StuckThreshold int
}

func (c Config) withDefaults() Config {
	if c.OfflineTicksPerCombo <= 0 {
		c.OfflineTicksPerCombo = 200
	}
	if c.IdleMeasureTicks <= 0 {
		c.IdleMeasureTicks = 30
	}
	c.Parallelism = par.Workers(c.Parallelism)
	if c.MeterRetries <= 0 {
		c.MeterRetries = 32
	}
	if c.HoldoverTicks == 0 {
		c.HoldoverTicks = 10
	}
	return c
}

// plausibilityMargin widens the calibrated plausibility band
// [idle/2, peak·(1+margin)] online readings must fall in; readings
// outside it are rejected as implied dropouts (a spiking or zeroed meter
// is a broken meter, not a 10x machine). Non-finite readings are always
// rejected. The band needs a calibrated peak, so it is inert before
// CollectOffline (or after loading a model saved without one).
const plausibilityMargin = 0.5

// Solver tiers, as recorded in Provenance.Tier: the closed-form exact
// tier and Monte-Carlo sampling of the ticks whose correction search
// runs past its cap.
const (
	TierExact      = "exact"
	TierMonteCarlo = "montecarlo"
)

// Tier-gate reasons. Constant strings only: the hot path writes them
// into Provenance without allocating.
const (
	reasonNoRunning = "no running VMs"
	reasonExact     = "group space within the exact budget"
	reasonExactCap  = "group space beyond the exact budget; correction search within its node cap"
	reasonMCCap     = "group space beyond the exact budget; correction search past its node cap"
)

// Provenance records how a tick's allocation was produced: the solver
// tier and why the gate picked it, the exact tier's search effort, a
// Monte-Carlo tick's sampling error, the model residual and the
// invariant auditor's verdict. It is filled on
// every tick with value-typed fields and constant reason strings, so
// carrying it costs the hot path nothing; the flight recorder and the
// tick event journal are built from it.
type Provenance struct {
	// Tier is the solver tier that produced PerVM (Tier* constants);
	// TierReason says why the gate picked it.
	Tier       string
	TierReason string
	// Evaluated counts the count vectors whose worth the exact tier's
	// correction search evaluated (zero on Monte-Carlo ticks). DirtyVMs
	// and Reused are always zero: the exact tier keeps
	// no state across ticks. Both stay for readers of the earlier
	// incremental tiers' provenance.
	DirtyVMs  int
	Evaluated int
	Reused    int
	// MaxStdErrWatts is the largest finite per-VM standard error of a
	// Monte-Carlo tick's shares (Allocation.StdErr); 0 on exact ticks,
	// whose shares carry no sampling error.
	MaxStdErrWatts float64
	// ModelResidualWatts is δ = dyn − v̂(N): the measured dynamic power
	// minus the model's own worth of the running set (the table mean on
	// an exact-match hit, else the clamped linear worth). The meter
	// overrides v̂(N), and on the exact tier that adds exactly δ/n to
	// every running VM's share. ModelResidualRel is δ/dyn (0 when dyn is
	// 0). Both are 0 with no VM running and when the running set's
	// combination is untrained.
	ModelResidualWatts float64
	ModelResidualRel   float64
	// EfficiencyResidualWatts is |Σφ − dynamic| as measured by the
	// invariant auditor; AuditViolations counts this tick's violations;
	// DeepChecked marks a tick re-solved by the deep audit's reference,
	// with DeepMaxDeltaWatts the largest per-VM divergence. All
	// zero when no auditor is installed.
	EfficiencyResidualWatts float64
	AuditViolations         int
	DeepChecked             bool
	DeepMaxDeltaWatts       float64
}

// Allocation is one tick's per-VM power disaggregation.
type Allocation struct {
	// Tick is the host clock when the states were collected.
	Tick int
	// MeasuredPower is the meter reading (total wall power, W).
	MeasuredPower float64
	// DynamicPower is MeasuredPower minus the idle power (clamped at 0):
	// v(N, C'), the quantity Shapley disaggregates.
	DynamicPower float64
	// PerVM is each VM's dynamic power share (Φ_i), indexed by vm.ID.
	// Stopped VMs are dummies and get exactly 0.
	PerVM []float64
	// IdlePerVM is each VM's idle-power share under the configured
	// attribution rule (nil for IdleNone).
	IdlePerVM []float64
	// Method records how the Shapley value was computed ("exact" or
	// "montecarlo").
	Method string
	// StdErr is each VM's standard error of its PerVM share on a
	// Monte-Carlo tick, indexed by vm.ID (stopped VMs get 0); nil on
	// exact ticks.
	StdErr []float64
	// SymmetryClasses is the number of groups the exact tier solved over:
	// running VMs of one VHC class with bit-equal state form one group.
	// It is 0 on Monte-Carlo ticks.
	SymmetryClasses int
	// Degraded marks an allocation produced under fault handling: the
	// measured power is a held-over stale sample. Degraded allocations are
	// still efficient against MeasuredPower but carry reduced confidence.
	Degraded bool
	// DegradedReason says why ("holdover: ..."); empty on clean ticks.
	DegradedReason string
	// HoldoverAgeTicks is the age of the meter sample backing this
	// allocation: 0 when fresh, otherwise ticks since the last good
	// reading.
	HoldoverAgeTicks int
	// RejectedSamples counts implausible meter readings (non-finite,
	// out-of-band, stuck-at) discarded while producing this tick.
	RejectedSamples int
	// Prov is the tick's solver/audit provenance.
	Prov Provenance
}

// Total returns VM id's total attributed power (dynamic + idle share).
func (a *Allocation) Total(id vm.ID) float64 {
	t := a.PerVM[int(id)]
	if a.IdlePerVM != nil {
		t += a.IdlePerVM[int(id)]
	}
	return t
}

// Estimator is the framework of Fig. 8.
type Estimator struct {
	host    *hypervisor.Host
	m       meter.Meter
	approx  *vhc.Approximator
	classes *vhc.ClassMap
	cfg     Config

	idlePower float64
	peakPower float64
	trained   bool

	// Online fault-handling state, touched only by the (single)
	// estimation goroutine — see EstimateTickSpan.
	lastGood     meter.Sample
	lastGoodTick int
	haveGood     bool
	stuckRun     int
	lastRaw      float64

	// The worth plan over the approximator's published model, rebuilt
	// when Train or Import publishes another model or the set grows.
	// planMu guards it, because Estimate reads the plan from any
	// goroutine.
	planMu sync.Mutex
	plan   *vhc.Plan

	// scratch is the estimation goroutine's cross-tick solver state.
	scratch scratch
	// snap is the estimation goroutine's collection buffer: CollectOffline
	// and EstimateTickSpan collect every tick into it.
	snap hypervisor.Snapshot
	// spare holds *scratch values for Estimate, one per concurrent call,
	// so a replay of many records reuses one set of buffers.
	spare sync.Pool

	// auditor, when installed, runs the per-tick invariant checks at the
	// end of EstimateTickSpan. Owned by the estimation goroutine.
	auditor *Auditor
}

// scratch is one caller's solver buffers: the running set's groups and
// the exact tier's work space. EstimateTick reuses the estimator's own
// across ticks to avoid allocating; each Estimate call takes one from the
// estimator's pool and owns it until it returns, so concurrent calls
// share only the read-only plan and model. Nothing in a scratch carries
// over from one tick to the next, so its history never changes the
// shares.
type scratch struct {
	groups groupScratch
	exact  exactScratch
}

// New builds an Estimator over a host and a meter.
func New(host *hypervisor.Host, m meter.Meter, cfg Config) (*Estimator, error) {
	if host == nil {
		return nil, errors.New("core: nil host")
	}
	if m == nil {
		return nil, errors.New("core: nil meter")
	}
	cfg = cfg.withDefaults()
	classes := cfg.Classes
	if classes == nil {
		var err error
		classes, err = vhc.IdentityClassMap(len(host.Set().Catalog()))
		if err != nil {
			return nil, err
		}
	} else {
		if err := classes.Validate(); err != nil {
			return nil, err
		}
		if len(classes.ByType) < len(host.Set().Catalog()) {
			return nil, fmt.Errorf("core: class map covers %d of %d catalog types",
				len(classes.ByType), len(host.Set().Catalog()))
		}
	}
	approx, err := vhc.New(classes.Classes, vhc.Options{Resolution: host.Resolution()})
	if err != nil {
		return nil, err
	}
	return &Estimator{host: host, m: m, approx: approx, classes: classes, cfg: cfg}, nil
}

// Host returns the underlying host.
func (e *Estimator) Host() *hypervisor.Host { return e.host }

// Approximator exposes the trained VHC approximator.
func (e *Estimator) Approximator() *vhc.Approximator { return e.approx }

// IdlePower returns the idle power established during offline collection.
func (e *Estimator) IdlePower() float64 { return e.idlePower }

// PeakPower returns the largest power reading observed during offline
// collection — the upper anchor of the plausibility band (0 before
// calibration or after loading a model saved without one).
func (e *Estimator) PeakPower() float64 { return e.peakPower }

// Trained reports whether offline collection has completed.
func (e *Estimator) Trained() bool { return e.trained }

// SetMeter swaps the estimator's meter — the injection point for fault
// wrappers (see internal/faults) and for replacing a failed transport.
// Not safe concurrently with estimation or collection; swap between
// phases.
func (e *Estimator) SetMeter(m meter.Meter) error {
	if m == nil {
		return errors.New("core: nil meter")
	}
	e.m = m
	return nil
}

// sampleMeter reads the meter, retrying past dropouts (a real 1 Hz meter
// occasionally misses a reading; the paper's pipeline just waits for the
// next one). A non-finite reading is lost like a dropout. It fails after
// MeterRetries consecutive losses. This is the strict path used by
// offline collection, where a broken meter must abort rather than
// silently poison the v(S,C) table; the online path layers holdover and
// plausibility gating on top (sampleMeterResilient).
func (e *Estimator) sampleMeter() (meter.Sample, error) {
	lost := "dropouts"
	for i := 0; i < e.cfg.MeterRetries; i++ {
		s, err := e.m.Sample()
		switch {
		case err == nil && !math.IsNaN(s.Power) && !math.IsInf(s.Power, 0):
			return s, nil
		case err == nil:
			lost = "losses, non-finite readings among them"
		case !errors.Is(err, meter.ErrDropout):
			return meter.Sample{}, err
		}
	}
	return meter.Sample{}, fmt.Errorf("core: %d consecutive meter %s", e.cfg.MeterRetries, lost)
}

// ErrMeterLost is returned by online estimation when the meter has
// produced no plausible reading for longer than the holdover staleness
// bound — the point past which serving held-over allocations would be
// fiction rather than degradation.
var ErrMeterLost = errors.New("core: meter signal lost beyond holdover bound")

// Terminal reports whether an estimation error is terminal for the
// degradation ladder: the estimator has exhausted holdover (ErrMeterLost)
// or was never trained (ErrUntrained), so no amount of in-tick retrying
// will yield even a degraded allocation — only an external change (the
// meter signal returning, a model load) can. Fleet-level schedulers use
// this to distinguish a host that must be quarantined and probed from one
// that hit an incidental per-tick failure.
func Terminal(err error) bool {
	return errors.Is(err, ErrMeterLost) || errors.Is(err, ErrUntrained)
}

// meterRead is one resilient meter acquisition: the sample to estimate
// with plus the degradation bookkeeping the tick's Allocation reports.
type meterRead struct {
	sample   meter.Sample
	degraded bool
	age      int // ticks since the sample was actually measured
	rejected int // implausible readings discarded this tick
	reason   string
}

// rejectReason classifies a reading against the plausibility gates:
// non-finite values, values outside the calibrated idle/peak band, and
// stuck-at runs. It returns "" for an acceptable reading. The stuck-run
// tracker advances on every observed reading, accepted or not.
func (e *Estimator) rejectReason(p float64) string {
	if math.IsNaN(p) || math.IsInf(p, 0) {
		return "non-finite reading"
	}
	if e.cfg.StuckThreshold > 0 {
		if e.stuckRun > 0 && p == e.lastRaw {
			e.stuckRun++
		} else {
			e.stuckRun = 1
			e.lastRaw = p
		}
		if e.stuckRun >= e.cfg.StuckThreshold {
			return fmt.Sprintf("stuck-at reading (%d identical)", e.stuckRun)
		}
	}
	if e.peakPower > 0 {
		lo := e.idlePower / 2
		hi := e.peakPower * (1 + plausibilityMargin)
		if p < lo || p > hi {
			return fmt.Sprintf("out-of-band reading (%.6g W outside [%.6g, %.6g])", p, lo, hi)
		}
	}
	return ""
}

// sampleMeterResilient acquires the tick's meter sample with the full
// online fault-handling discipline: bounded retry on dropouts, rejection
// of implausible readings (treated as implied dropouts), and last-good
// holdover within the staleness bound. tick is the snapshot's clock, used
// to age the held-over sample.
func (e *Estimator) sampleMeterResilient(tick int) (meterRead, error) {
	rd := meterRead{}
	var lastErr error
	for i := 0; i < e.cfg.MeterRetries; i++ {
		s, err := e.m.Sample()
		if err != nil {
			lastErr = err
			if errors.Is(err, meter.ErrDropout) {
				continue
			}
			// Transport-level failure (e.g. a corrupt serial stream):
			// further in-tick reads of a broken link won't help.
			break
		}
		if reason := e.rejectReason(s.Power); reason != "" {
			rd.rejected++
			lastErr = errors.New(reason)
			continue
		}
		e.lastGood = s
		e.lastGoodTick = tick
		e.haveGood = true
		rd.sample = s
		return rd, nil
	}
	if lastErr == nil {
		lastErr = meter.ErrDropout
	}
	if e.cfg.HoldoverTicks > 0 && e.haveGood {
		if age := tick - e.lastGoodTick; age <= e.cfg.HoldoverTicks {
			rd.sample = e.lastGood
			rd.degraded = true
			rd.age = age
			rd.reason = fmt.Sprintf("holdover: %v (sample %d ticks old)", lastErr, age)
			return rd, nil
		}
		return meterRead{}, fmt.Errorf("%w: no good sample for %d ticks (bound %d): %v",
			ErrMeterLost, tick-e.lastGoodTick, e.cfg.HoldoverTicks, lastErr)
	}
	return meterRead{}, fmt.Errorf("%w: %v", ErrMeterLost, lastErr)
}

// CollectOffline runs the offline data-collecting phase: it measures the
// idle power, then runs every non-empty VHC combination under the
// synthetic workload for OfflineTicksPerCombo ticks, recording samples and
// fitting the mapping vectors. The host's running set, workload bindings
// and clock are modified; all VMs are stopped on return.
func (e *Estimator) CollectOffline() error {
	set := e.host.Set()

	// Establish the idle power (Remark 1: stable when no VM runs).
	e.host.SetAll(false)
	e.peakPower = 0
	var idleSum float64
	for i := 0; i < e.cfg.IdleMeasureTicks; i++ {
		e.host.Advance(1)
		s, err := e.sampleMeter()
		if err != nil {
			return fmt.Errorf("core: measuring idle power: %w", err)
		}
		idleSum += s.Power
		e.peakPower = math.Max(e.peakPower, s.Power)
	}
	e.idlePower = idleSum / float64(e.cfg.IdleMeasureTicks)

	// Attach decorrelated synthetic workloads to every VM. CollectIdleProb
	// optionally lets VMs idle some ticks so the samples also cover
	// partially active VHCs (sub-coalition-like states); the default of 0
	// matches the paper's collection, which keeps every coalition member
	// busy and fits the all-active regime the evaluation validates.
	for i := 0; i < set.Len(); i++ {
		g := workload.Synthetic{Seed: e.cfg.Seed + int64(i)*104729, IdleProb: e.cfg.CollectIdleProb}
		if err := e.host.Attach(vm.ID(i), g); err != nil {
			return err
		}
	}

	// Traverse the 2^r − 1 non-empty VHC (class) combinations. Every
	// offline tick collects into e.snap and aggregates into one feature
	// array; AddSample keeps its own copy of the features.
	var feat [vhc.MaxFeatureLen]float64
	numCombos := vhc.ComboMask(1) << uint(e.approx.NumTypes())
	for combo := vhc.ComboMask(1); combo < numCombos; combo++ {
		running, any, err := e.runningForCombo(set, combo)
		if err != nil {
			return err
		}
		if !any {
			continue // no VM of these classes on this host
		}
		if err := e.host.SetRunning(running); err != nil {
			return err
		}
		for t := 0; t < e.cfg.OfflineTicksPerCombo; t++ {
			e.host.Advance(1)
			e.host.CollectInto(&e.snap)
			s, err := e.sampleMeter()
			if err != nil {
				return fmt.Errorf("core: collecting combo %s: %w", combo, err)
			}
			e.peakPower = math.Max(e.peakPower, s.Power)
			dyn := s.Power - e.idlePower
			if dyn < 0 {
				dyn = 0
			}
			got, features, err := vhc.ClassedFeaturesInto(set, e.snap.Running, e.snap.States, e.classes, &feat)
			if err != nil {
				return err
			}
			if err := e.approx.AddSample(got, features, dyn); err != nil {
				return err
			}
		}
	}
	e.host.SetAll(false)

	if err := e.approx.Train(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.trained = true
	return nil
}

// runningForCombo returns the running-flag vector selecting all VMs whose
// class belongs to the combo, plus whether any VM was selected.
func (e *Estimator) runningForCombo(set *vm.Set, combo vhc.ComboMask) ([]bool, bool, error) {
	running := make([]bool, set.Len())
	any := false
	for i := 0; i < set.Len(); i++ {
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return nil, false, err
		}
		class := vm.TypeID(e.classes.ByType[v.Type])
		if combo.Contains(class) {
			running[i] = true
			any = true
		}
	}
	return running, any, nil
}

// ErrUntrained is returned by online estimation before CollectOffline.
var ErrUntrained = errors.New("core: estimator not trained (run CollectOffline first)")

// savedModel wraps the approximator model with the estimator-level state
// a reload needs. PeakPower anchors the online plausibility band; models
// saved before it existed load with the band disabled.
type savedModel struct {
	IdlePower float64         `json:"idle_power"`
	PeakPower float64         `json:"peak_power,omitempty"`
	Model     json.RawMessage `json:"model"`
}

// SaveModel persists the calibration (idle power + fitted mapping
// vectors) as JSON, so the expensive offline phase runs once and later
// processes reload it with LoadModel. The exact-match v(S,C) table is
// session state and is not persisted.
func (e *Estimator) SaveModel(w io.Writer) error {
	if !e.trained {
		return ErrUntrained
	}
	var buf bytes.Buffer
	if err := e.approx.Export(&buf); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(savedModel{IdlePower: e.idlePower, PeakPower: e.peakPower, Model: buf.Bytes()}); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// LoadModel restores a calibration written by SaveModel. The estimator's
// host must have the same catalog/class layout the model was trained on.
func (e *Estimator) LoadModel(r io.Reader) error {
	var saved savedModel
	if err := json.NewDecoder(r).Decode(&saved); err != nil {
		return fmt.Errorf("core: load model: %w", err)
	}
	if saved.IdlePower < 0 || math.IsNaN(saved.IdlePower) || math.IsInf(saved.IdlePower, 0) {
		return fmt.Errorf("core: load model: invalid idle power %g", saved.IdlePower)
	}
	if saved.PeakPower < 0 || math.IsNaN(saved.PeakPower) || math.IsInf(saved.PeakPower, 0) {
		return fmt.Errorf("core: load model: invalid peak power %g", saved.PeakPower)
	}
	if err := e.approx.Import(bytes.NewReader(saved.Model)); err != nil {
		return err
	}
	e.idlePower = saved.IdlePower
	e.peakPower = saved.PeakPower
	e.trained = true
	return nil
}

// EstimateTick performs one online estimation step: collect the current
// states, sample the meter, and disaggregate.
func (e *Estimator) EstimateTick() (*Allocation, error) {
	return e.EstimateTickSpan(nil)
}

// EstimateTickSpan is EstimateTick with pipeline tracing: the span (nil
// is fine) gets stage marks "snapshot", "meter", "worth", "solve" and
// "normalize" as the tick moves through the paper's online pipeline.
//
// This is the resilient online path: meter dropouts are retried, readings
// outside the calibrated plausibility band are rejected as implied
// dropouts, and a tick whose reads all fail serves the last good sample
// (flagged Degraded) until the holdover bound lapses, at which point
// ErrMeterLost is returned. It mutates the estimator's fault-handling
// state and solver scratch and must be driven from a single goroutine —
// the same contract Run and powerd.Step already follow; Estimate stays
// pure.
func (e *Estimator) EstimateTickSpan(sp *obs.Span) (*Allocation, error) {
	e.host.CollectInto(&e.snap)
	snap := e.snap
	sp.Mark("snapshot")
	rd, err := e.sampleMeterResilient(snap.Tick)
	if err != nil {
		return nil, err
	}
	sp.Mark("meter")
	alloc, err := e.estimateTick(&e.scratch, snap, rd.sample.Power, sp)
	if err != nil {
		return nil, err
	}
	metrics().noteTick(alloc)
	if rd.degraded {
		alloc.Degraded = true
		alloc.DegradedReason = rd.reason
		alloc.HoldoverAgeTicks = rd.age
	}
	alloc.RejectedSamples = rd.rejected
	if e.auditor != nil {
		e.auditor.audit(e, snap, alloc)
	}
	return alloc, nil
}

// SetAuditor installs (or, with nil, removes) the invariant auditor
// EstimateTickSpan runs at the end of every successful tick. Like
// SetMeter, not safe concurrently with estimation; install before the
// serve loop starts.
func (e *Estimator) SetAuditor(a *Auditor) { e.auditor = a }

// Estimate disaggregates a measured total power across the snapshot's
// running VMs with the non-deterministic Shapley value. The grand
// coalition's worth is the measured (idle-deducted) power, so the
// allocation is always efficient against the meter; proper subsets use the
// VHC approximation.
//
// Estimate runs EstimateTick's tier gate and solvers on a private scratch,
// so replaying a recorded tick reproduces its served shares and tier bit
// for bit. It shares only the published model and the plan with other
// callers: it is safe from many goroutines and concurrently with
// EstimateTick. Its ticks are not counted in the tick metrics.
func (e *Estimator) Estimate(snap hypervisor.Snapshot, measuredTotal float64) (*Allocation, error) {
	sc, _ := e.spare.Get().(*scratch)
	if sc == nil {
		sc = new(scratch)
	}
	defer e.spare.Put(sc)
	return e.estimateTick(sc, snap, measuredTotal, nil)
}

// ensurePlan returns the worth plan over the approximator's published
// model and the whole VM set, building one when the approximator has
// published a model since the last build or the set has grown (AddVM
// only appends). A plan that cannot be built returns its error, on every
// call. Safe from any goroutine.
func (e *Estimator) ensurePlan() (*vhc.Plan, error) {
	set := e.host.Set()
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if p := e.plan; p != nil && p.Reads(e.approx) && p.NumVMs() == set.Len() {
		return p, nil
	}
	p, err := vhc.NewPlan(set, e.classes, e.approx)
	if err != nil {
		return nil, fmt.Errorf("core: build worth plan: %w", err)
	}
	e.plan = p
	return p, nil
}

// CalibratedForClass reports whether offline collection trained a model
// for the given catalog type's VHC class on this host — the gate a
// hot-plug or migration destination must pass: a VM of a class the host
// never calibrated cannot be estimated there (every sub-coalition combo
// containing the class is untrained), and would quarantine the host on
// its first tick. Because calibration trains every combination of the
// classes present, and admission preserves "present ⊆ calibrated",
// checking the singleton combo suffices.
func (e *Estimator) CalibratedForClass(t vm.TypeID) bool {
	if !e.trained || int(t) < 0 || int(t) >= len(e.classes.ByType) {
		return false
	}
	return e.approx.Trained(vhc.ComboMask(1) << uint(e.classes.ByType[t]))
}

// planWorth is the tick's game over the plan: stopped VMs are masked out
// as dummies, the running grand coalition is worth dyn, the empty set 0,
// and every other coalition is priced by plan.Eval. The returned func
// reports the first evaluation failure (Shapley evaluates worths inside
// tight loops that cannot return errors).
//
// Thread-safety: the WorthFunc satisfies the parallel Shapley engine's
// contract (see internal/shapley/parallel.go): Plan.Eval only reads the
// immutable plan and its model, so concurrent evaluations never contend;
// the error capture is mutex-guarded.
func planWorth(plan *vhc.Plan, running vm.Coalition, states []vm.State, dyn float64) (shapley.WorthFunc, func() error) {
	var mu sync.Mutex
	var worthErr error
	worth := func(s vm.Coalition) float64 {
		s &= running // stopped VMs are dummies
		if s == running {
			return dyn
		}
		if s.IsEmpty() {
			return 0
		}
		p, err := plan.Eval(s, states)
		if err != nil {
			mu.Lock()
			if worthErr == nil {
				worthErr = err
			}
			mu.Unlock()
			return 0
		}
		return p
	}
	return worth, func() error {
		mu.Lock()
		defer mu.Unlock()
		return worthErr
	}
}

// estimateTick is the engine behind EstimateTick and Estimate: the tier
// gate and the solvers, run over the worth plan into sc. The running
// VMs are grouped (same VHC class, bit-equal state); when their group
// space V = ∏(c_g+1) fits exactBudget the exact tier serves the tick in
// closed form. Past the budget the exact tier's correction search runs
// under searchCap nodes: if it finishes the tick is served exactly,
// otherwise Monte Carlo samples it if the host fits a coalition mask,
// and the tick fails if not. The result is a function of the snapshot,
// the measured power, the plan and Config alone. A snapshot whose
// running flags or states do not cover the VM set is refused.
//
// sc is owned by the caller for the duration of the call.
func (e *Estimator) estimateTick(sc *scratch, snap hypervisor.Snapshot, measuredTotal float64, sp *obs.Span) (*Allocation, error) {
	if !e.trained {
		return nil, ErrUntrained
	}
	plan, err := e.ensurePlan()
	if err != nil {
		return nil, err
	}
	n := e.host.Set().Len()
	if err := checkSnapshot(snap, n); err != nil {
		return nil, err
	}
	dyn := measuredTotal - e.idlePower
	if dyn < 0 {
		dyn = 0
	}
	g := &sc.groups
	members := g.runningMembers(snap)

	alloc := &Allocation{
		Tick:          snap.Tick,
		MeasuredPower: measuredTotal,
		DynamicPower:  dyn,
	}
	if len(members) == 0 {
		// With no VM running every watt is idle by definition (Remark 1);
		// a noisy meter reading above the calibrated idle average must
		// not surface as unattributable dynamic power — Σφ is exactly 0
		// here and Efficiency would be violated by any dyn > 0.
		alloc.DynamicPower = 0
		alloc.Method = "exact"
		alloc.PerVM = make([]float64, n)
		alloc.Prov.Tier = TierExact
		alloc.Prov.TierReason = reasonNoRunning
		return e.attributeIdle(alloc, members), nil
	}
	if err := g.build(plan, snap, members); err != nil {
		return nil, fmt.Errorf("core: worth evaluation: %w", err)
	}
	if resid, ok := g.residual(plan, dyn); ok {
		alloc.Prov.ModelResidualWatts = resid
		if dyn > 0 {
			alloc.Prov.ModelResidualRel = resid / dyn
		}
	}

	limit, reason := math.MaxInt, reasonExact
	if g.vectors() > exactBudget {
		limit, reason = searchCap, reasonExactCap
	}
	phi, done, err := sc.exact.solve(plan, g, dyn, limit, sp)
	if err != nil {
		return nil, fmt.Errorf("core: worth evaluation: %w", err)
	}
	if done {
		alloc.Method = "exact"
		alloc.SymmetryClasses = len(g.groups)
		alloc.Prov.Tier = TierExact
		alloc.Prov.TierReason = reason
		alloc.Prov.Evaluated = sc.exact.visited
		alloc.PerVM = make([]float64, n)
		for _, i := range members {
			alloc.PerVM[i] = phi[g.groupOf[i]]
		}
		sp.Mark("solve")
	} else {
		running, err := vm.RunningCoalition(snap.Running)
		if err != nil {
			return nil, fmt.Errorf("core: %d running VMs in %d groups span more than %d count vectors and the correction search ran past %d nodes: %w", len(members), len(g.groups), exactBudget, searchCap, err)
		}
		alloc.Method = "montecarlo"
		alloc.Prov.Tier = TierMonteCarlo
		alloc.Prov.TierReason = reasonMCCap
		worth, worthErr := planWorth(plan, running, snap.States, dyn)
		res, err := shapley.MonteCarlo(n, worth, shapley.MCOptions{
			Permutations: shapley.DefaultPermutations,
			Seed:         e.cfg.Seed ^ int64(snap.Tick),
			Parallelism:  e.cfg.Parallelism,
		})
		sp.Mark("solve")
		if err == nil {
			if werr := worthErr(); werr != nil {
				err = fmt.Errorf("core: worth evaluation: %w", werr)
			}
		}
		if err != nil {
			return nil, err
		}
		alloc.PerVM, alloc.StdErr = res.Phi, res.StdErr
		for _, se := range res.StdErr {
			if se > alloc.Prov.MaxStdErrWatts && !math.IsInf(se, 1) {
				alloc.Prov.MaxStdErrWatts = se
			}
		}
	}
	alloc = e.attributeIdle(alloc, members)
	sp.Mark("normalize")
	return alloc, nil
}

// checkSnapshot refuses a snapshot whose running flags or states do not
// cover the n-VM set: its running set is unknown.
func checkSnapshot(snap hypervisor.Snapshot, n int) error {
	if len(snap.Running) != n || len(snap.States) != n {
		return fmt.Errorf("core: snapshot at tick %d has %d Running flags and %d states for %d VMs", snap.Tick, len(snap.Running), len(snap.States), n)
	}
	return nil
}

// Interactions computes the pairwise Shapley interaction index of the
// approximated game at a snapshot: entry (i, j) is the watts the pair
// jointly "saves" (negative) or "costs" (positive) relative to their
// separate contributions — live interference monitoring from the same
// worths the estimator allocates with. Stopped VMs are dummies with zero
// interactions.
func (e *Estimator) Interactions(snap hypervisor.Snapshot, measuredTotal float64) ([][]float64, error) {
	if !e.trained {
		return nil, ErrUntrained
	}
	dyn := measuredTotal - e.idlePower
	if dyn < 0 {
		dyn = 0
	}
	n := e.host.Set().Len()
	if err := checkSnapshot(snap, n); err != nil {
		return nil, err
	}
	running, err := vm.RunningCoalition(snap.Running)
	if err != nil {
		return nil, fmt.Errorf("core: interactions: %w", err)
	}
	plan, err := e.ensurePlan()
	if err != nil {
		return nil, err
	}
	worth, worthErr := planWorth(plan, running, snap.States, dyn)
	idx, err := shapley.Interactions(n, worth)
	if err != nil {
		return nil, err
	}
	if werr := worthErr(); werr != nil {
		return nil, fmt.Errorf("core: interaction worth evaluation: %w", werr)
	}
	return idx, nil
}

// Audit verifies the Shapley axioms of the allocation the estimator
// produces for a snapshot, against the approximated game it was computed
// from: Efficiency holds by construction; Symmetry and Dummy can be
// violated only through v(S,C) approximation error, so the report
// quantifies how much game structure the VHC approximation preserves.
// tol is the axiom tolerance in watts.
func (e *Estimator) Audit(snap hypervisor.Snapshot, measuredTotal, tol float64) (*shapley.AxiomReport, *Allocation, error) {
	alloc, err := e.Estimate(snap, measuredTotal)
	if err != nil {
		return nil, nil, err
	}
	running, err := vm.RunningCoalition(snap.Running)
	if err != nil {
		return nil, nil, fmt.Errorf("core: audit: %w", err)
	}
	plan, err := e.ensurePlan()
	if err != nil {
		return nil, nil, err
	}
	worth, worthErr := planWorth(plan, running, snap.States, alloc.DynamicPower)
	report, err := shapley.CheckAxioms(e.host.Set().Len(), worth, alloc.PerVM, tol)
	if err != nil {
		return nil, nil, err
	}
	if werr := worthErr(); werr != nil {
		return nil, nil, fmt.Errorf("core: audit worth evaluation: %w", werr)
	}
	return report, alloc, nil
}

// attributeIdle fills IdlePerVM per the configured rule. members is the
// running VM set as indices.
func (e *Estimator) attributeIdle(alloc *Allocation, members []int) *Allocation {
	switch e.cfg.IdleAttribution {
	case IdleEqual:
		alloc.IdlePerVM = make([]float64, len(alloc.PerVM))
		if len(members) == 0 {
			return alloc
		}
		share := e.idlePower / float64(len(members))
		for _, i := range members {
			alloc.IdlePerVM[i] = share
		}
	case IdleProportional:
		alloc.IdlePerVM = make([]float64, len(alloc.PerVM))
		var sum float64
		for _, p := range alloc.PerVM {
			sum += p
		}
		if sum <= 0 {
			// Degenerate to equal shares when nothing draws power.
			if len(members) == 0 {
				return alloc
			}
			share := e.idlePower / float64(len(members))
			for _, i := range members {
				alloc.IdlePerVM[i] = share
			}
			return alloc
		}
		for i, p := range alloc.PerVM {
			alloc.IdlePerVM[i] = e.idlePower * p / sum
		}
	}
	return alloc
}

// Run advances the host clock and estimates for the given number of ticks,
// invoking fn with each allocation. It stops at the first error or when fn
// returns false.
func (e *Estimator) Run(ticks int, fn func(*Allocation) bool) error {
	for i := 0; i < ticks; i++ {
		e.host.Advance(1)
		alloc, err := e.EstimateTick()
		if err != nil {
			return err
		}
		if fn != nil && !fn(alloc) {
			return nil
		}
	}
	return nil
}
