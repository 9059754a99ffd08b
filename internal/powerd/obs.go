package powerd

import (
	"fmt"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/meter/serial"
	"vmpower/internal/obs"
	"vmpower/internal/serve"
	"vmpower/internal/shapley"
	"vmpower/internal/vm"
)

// tickStages are the pipeline stages of one estimation tick, in order.
// The first five are marked by core.EstimateTickSpan; "publish" is the
// daemon's own record/publish step.
var tickStages = []string{"snapshot", "meter", "worth", "solve", "normalize", "publish"}

// serverObs bundles the daemon's observability surface: the shared part
// (journal, flight recorder, encode errors, tick skew, dump trigger) and
// powerd's own families. All methods are nil-safe: an uninstrumented
// Server carries a nil *serverObs and pays one atomic load per tick.
type serverObs struct {
	*serve.Telemetry
	tracer *obs.Tracer

	ticks       *obs.Counter
	tickErrors  *obs.Counter
	degraded    *obs.Counter
	rejected    *obs.Counter
	degradedNow *obs.Gauge
	holdoverAge *obs.Gauge
	lastTick    *obs.Gauge
	calibrated  *obs.Gauge
	idleWatts   *obs.Gauge
	measured    *obs.Gauge
	vmWatts     map[string]*obs.Gauge

	// Step-goroutine state (same single-driver contract as Server.Step;
	// never touched by HTTP handlers): edge detection for journal events
	// and the reusable flight-record scratch.
	prevTier     string
	prevDegraded bool
	scratch      obs.FlightRecord
	scratchRows  [][]float64
}

// Instrument activates metrics, tracing and structured logging for the
// daemon, and instruments the shapley, serial and core packages on the
// same registry so one scrape covers the whole pipeline (including the
// model residual and the auditor). Call it before Handler: only
// an instrumented handler mounts /metrics and counts requests per route.
// interval is the expected Step cadence (the /healthz stall threshold is
// 3x it); <= 0 defaults to 1 s. Instrument(nil, ...) deactivates
// everything.
func (s *Server) Instrument(reg *obs.Registry, log *obs.Logger, interval time.Duration) {
	if reg == nil {
		s.telemetry.Store(nil)
		s.core.Instrument(nil)
		shapley.Instrument(nil)
		serial.Instrument(nil)
		core.Instrument(nil)
		return
	}
	o := &serverObs{
		tracer: obs.NewTracer(reg,
			"vmpower_tick_duration_seconds",
			"vmpower_tick_stage_duration_seconds",
			"estimation tick latency", tickStages...),
		ticks:      reg.Counter("vmpower_ticks_total", "estimation ticks completed"),
		tickErrors: reg.Counter("vmpower_tick_errors_total", "estimation ticks that failed"),
		degraded: reg.Counter("vmpower_degraded_ticks_total",
			"ticks served from holdover instead of a fresh plausible reading"),
		rejected: reg.Counter("vmpower_rejected_samples_total",
			"meter samples rejected by the plausibility gate"),
		degradedNow: reg.Gauge("vmpower_degraded",
			"1 while the most recent tick was degraded"),
		holdoverAge: reg.Gauge("vmpower_holdover_age_ticks",
			"age of the held-over meter sample at the last tick (0 when fresh)"),
		lastTick:   reg.Gauge("vmpower_last_tick_timestamp_seconds", "unix time of the last successful tick"),
		calibrated: reg.Gauge("vmpower_calibrated", "1 when the estimator is trained"),
		idleWatts:  reg.Gauge("vmpower_idle_watts", "idle power established by calibration"),
		measured:   reg.Gauge("vmpower_measured_watts", "machine power measured at the last tick"),
		vmWatts:    make(map[string]*obs.Gauge, len(s.names)),
	}
	o.scratchRows = make([][]float64, len(s.names))
	for i := range o.scratchRows {
		o.scratchRows[i] = make([]float64, 0, int(vm.NumComponents))
	}
	cliutil.BuildInfoMetric(reg)
	for _, name := range s.names {
		o.vmWatts[name] = reg.Gauge("vmpower_vm_watts",
			"per-VM attributed power at the last tick", obs.L("vm", name))
	}
	o.Telemetry = serve.NewTelemetry(reg, log, interval,
		obs.NewFlightRecorder(0, len(s.names), int(vm.NumComponents)))
	shapley.Instrument(reg)
	serial.Instrument(reg)
	core.Instrument(reg)
	s.core.Instrument(o.Telemetry)
	s.telemetry.Store(o)
}

func (o *serverObs) span() *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.Start()
}

// noteTick publishes the gauges of a successful tick and emits the
// per-tick debug line. The Enabled guard keeps the variadic argument
// slice off the 1 Hz hot path unless debug logging is on.
func (o *serverObs) noteTick(now time.Time, trained bool, idle float64, alloc *core.Allocation, wire *AllocationJSON) {
	if o == nil {
		return
	}
	o.ticks.Inc()
	o.lastTick.Set(float64(now.UnixNano()) / 1e9)
	if trained {
		o.calibrated.Set(1)
	} else {
		o.calibrated.Set(0)
	}
	o.idleWatts.Set(idle)
	o.measured.Set(alloc.MeasuredPower)
	if alloc.Degraded {
		o.degraded.Inc()
		o.degradedNow.Set(1)
	} else {
		o.degradedNow.Set(0)
	}
	o.holdoverAge.Set(float64(alloc.HoldoverAgeTicks))
	if alloc.RejectedSamples > 0 {
		o.rejected.Add(uint64(alloc.RejectedSamples))
	}
	for name, w := range wire.PerVM {
		o.vmWatts[name].Set(w)
	}
	if alloc.Degraded && o.Log.Enabled(obs.LevelWarn) {
		o.Log.Warn("degraded tick",
			"tick", alloc.Tick,
			"reason", alloc.DegradedReason,
			"holdover_age_ticks", alloc.HoldoverAgeTicks)
	}
	if o.Log.Enabled(obs.LevelDebug) {
		o.Log.Debug("tick",
			"tick", alloc.Tick,
			"measured_watts", alloc.MeasuredPower,
			"dynamic_watts", alloc.DynamicPower,
			"method", alloc.Method)
	}
}

// noteProvenance runs the tick's provenance bookkeeping from the Step
// goroutine: edge-triggered journal events (tier switch, degraded/
// recovered), the flight record, and — last, so the
// dump includes the tick that tripped it — any flight dump the audit
// callback armed mid-tick. The steady-state path (no transitions)
// is allocation-free: the scratch record refills preallocated slices and
// Record copies into preallocated slots.
func (o *serverObs) noteProvenance(s *Server, now time.Time, alloc *core.Allocation, snap *hypervisor.Snapshot, dt float64) {
	if o == nil {
		return
	}
	if alloc.Prov.Tier != o.prevTier {
		if o.prevTier != "" {
			o.Journal.Append(alloc.Tick, "tier_switch", alloc.Prov.Tier,
				fmt.Sprintf("%s -> %s: %s", o.prevTier, alloc.Prov.Tier, alloc.Prov.TierReason))
		}
		o.prevTier = alloc.Prov.Tier
	}
	if alloc.Degraded != o.prevDegraded {
		if alloc.Degraded {
			o.Journal.Append(alloc.Tick, "degraded", "", alloc.DegradedReason)
		} else {
			o.Journal.Append(alloc.Tick, "recovered", "", "")
		}
		o.prevDegraded = alloc.Degraded
	}

	rec := &o.scratch
	rec.Tick = alloc.Tick
	rec.UnixNanos = now.UnixNano()
	rec.MeasuredWatts = alloc.MeasuredPower
	rec.DynamicWatts = alloc.DynamicPower
	rec.Tier = alloc.Prov.Tier
	rec.TierReason = alloc.Prov.TierReason
	rec.SymClasses = alloc.SymmetryClasses
	rec.DirtyVMs = alloc.Prov.DirtyVMs
	rec.Evaluated = alloc.Prov.Evaluated
	rec.Reused = alloc.Prov.Reused
	rec.MaxStdErrWatts = alloc.Prov.MaxStdErrWatts
	rec.ModelResidualWatts = alloc.Prov.ModelResidualWatts
	rec.ModelResidualRel = alloc.Prov.ModelResidualRel
	rec.Degraded = alloc.Degraded
	rec.DegradedReason = alloc.DegradedReason
	rec.HoldoverAgeTicks = alloc.HoldoverAgeTicks
	rec.RejectedSamples = alloc.RejectedSamples
	rec.EfficiencyResidualWatts = alloc.Prov.EfficiencyResidualWatts
	rec.Names = append(rec.Names[:0], s.names...)
	rec.PerVMWatts = append(rec.PerVMWatts[:0], alloc.PerVM...)
	rec.PerVMEnergyWs = rec.PerVMEnergyWs[:0]
	for i := range s.names {
		w := alloc.PerVM[i]
		if alloc.IdlePerVM != nil {
			w += alloc.IdlePerVM[i]
		}
		rec.PerVMEnergyWs = append(rec.PerVMEnergyWs, w*dt)
	}
	rec.States = rec.States[:0]
	for i := range snap.States {
		o.scratchRows[i] = append(o.scratchRows[i][:0], snap.States[i][:]...)
		rec.States = append(rec.States, o.scratchRows[i])
	}
	o.Flight.Record(rec)
	o.FireDump(alloc.Tick)
}

func (o *serverObs) noteTickError(err error) {
	if o == nil {
		return
	}
	o.tickErrors.Inc()
	o.Log.Error("tick failed", "err", err)
}
