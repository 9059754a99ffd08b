package powerd

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/meter/serial"
	"vmpower/internal/obs"
	"vmpower/internal/shapley"
	"vmpower/internal/vm"
)

// tickStages are the pipeline stages of one estimation tick, in order.
// The first five are marked by core.EstimateTickSpan; "publish" is the
// daemon's own record/publish step.
var tickStages = []string{"snapshot", "meter", "worth", "solve", "normalize", "publish"}

// endpoints is the daemon's HTTP surface, enumerated so the per-endpoint
// request metrics have a fixed, bounded label set.
var endpoints = []string{
	"/api/v1/status",
	"/api/v1/allocation",
	"/api/v1/history",
	"/api/v1/energy",
	"/api/v1/interactions",
	"/api/v1/events",
	"/debug/flight",
	"/healthz",
	"/metrics",
	"/metrics.json",
}

// serverObs bundles the daemon's observability surface. All methods are
// nil-safe: an uninstrumented Server carries a nil *serverObs and pays
// one atomic load per tick/request.
type serverObs struct {
	reg      *obs.Registry
	log      *obs.Logger
	tracer   *obs.Tracer
	interval time.Duration

	ticks       *obs.Counter
	tickErrors  *obs.Counter
	encodeErrs  *obs.Counter
	degraded    *obs.Counter
	rejected    *obs.Counter
	degradedNow *obs.Gauge
	holdoverAge *obs.Gauge
	lastTick    *obs.Gauge
	calibrated  *obs.Gauge
	idleWatts   *obs.Gauge
	measured    *obs.Gauge
	tickSkew    *obs.Gauge
	vmWatts     map[string]*obs.Gauge

	http map[string]httpMetrics

	// Provenance surface: the event journal and the flight recorder
	// (both nil-safe ring buffers), plus the most recent triggered dump.
	journal  *obs.Journal
	flight   *obs.FlightRecorder
	lastDump atomic.Pointer[obs.FlightDump]

	// Step-goroutine state (same single-driver contract as Server.Step;
	// never touched by HTTP handlers): edge detection for journal events,
	// the reusable flight-record scratch, and the deferred-dump trigger
	// set by the audit callback mid-tick and consumed after the tick's
	// flight record lands (so the dump includes the violating tick).
	prevTier        string
	prevDegraded    bool
	prevCompiles    uint64
	prevCompileErrs uint64
	prevTickWall    time.Time
	pendingDump     string
	scratch         obs.FlightRecord
	scratchRows     [][]float64
}

type httpMetrics struct {
	reqs *obs.Counter
	lat  *obs.Histogram
}

// Instrument activates metrics, tracing and structured logging for the
// daemon, and instruments the shapley, serial and core packages on the
// same registry so one scrape covers the whole pipeline (including the
// compiled worth plan's cache behaviour). Call it before
// Handler so /metrics and /metrics.json are mounted. interval is the
// expected Step cadence (the /healthz stall threshold is 3x it); <= 0
// defaults to 1 s. Instrument(nil, ...) deactivates everything.
func (s *Server) Instrument(reg *obs.Registry, log *obs.Logger, interval time.Duration) {
	if reg == nil {
		s.telemetry.Store(nil)
		shapley.Instrument(nil)
		serial.Instrument(nil)
		core.Instrument(nil)
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	o := &serverObs{
		reg:      reg,
		log:      log,
		interval: interval,
		tracer: obs.NewTracer(reg,
			"vmpower_tick_duration_seconds",
			"vmpower_tick_stage_duration_seconds",
			"estimation tick latency", tickStages...),
		ticks:      reg.Counter("vmpower_ticks_total", "estimation ticks completed"),
		tickErrors: reg.Counter("vmpower_tick_errors_total", "estimation ticks that failed"),
		encodeErrs: reg.Counter("vmpower_http_encode_errors_total",
			"HTTP response bodies that failed to encode or write"),
		degraded: reg.Counter("vmpower_degraded_ticks_total",
			"ticks served from holdover or fallback instead of a fresh plausible reading"),
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
		tickSkew: reg.Gauge("vmpower_tick_skew_seconds",
			"last tick-to-tick wall spacing minus the configured interval"),
		vmWatts: make(map[string]*obs.Gauge, len(s.names)),
		http:    make(map[string]httpMetrics, len(endpoints)),
		journal: obs.NewJournal(0),
		flight:  obs.NewFlightRecorder(0, len(s.names), int(vm.NumComponents)),
	}
	o.scratchRows = make([][]float64, len(s.names))
	for i := range o.scratchRows {
		o.scratchRows[i] = make([]float64, 0, int(vm.NumComponents))
	}
	o.prevCompiles, o.prevCompileErrs = s.est.PlanCompileStats()
	cliutil.BuildInfoMetric(reg)
	for _, name := range s.names {
		o.vmWatts[name] = reg.Gauge("vmpower_vm_watts",
			"per-VM attributed power at the last tick", obs.L("vm", name))
	}
	for _, p := range endpoints {
		o.http[p] = httpMetrics{
			reqs: reg.Counter("vmpower_http_requests_total",
				"HTTP requests served", obs.L("path", p)),
			lat: reg.Histogram("vmpower_http_request_duration_seconds",
				"HTTP request latency", obs.DefDurationBuckets, obs.L("path", p)),
		}
	}
	shapley.Instrument(reg)
	serial.Instrument(reg)
	core.Instrument(reg)
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
	if alloc.Degraded && o.log.Enabled(obs.LevelWarn) {
		o.log.Warn("degraded tick",
			"tick", alloc.Tick,
			"reason", alloc.DegradedReason,
			"holdover_age_ticks", alloc.HoldoverAgeTicks)
	}
	if o.log.Enabled(obs.LevelDebug) {
		o.log.Debug("tick",
			"tick", alloc.Tick,
			"measured_watts", alloc.MeasuredPower,
			"dynamic_watts", alloc.DynamicPower,
			"method", alloc.Method)
	}
}

// noteProvenance runs the tick's provenance bookkeeping from the Step
// goroutine: the skew gauge, edge-triggered journal events (tier switch,
// degraded/recovered, plan recompiles), the flight record, and — last,
// so the dump includes the tick that tripped it — any deferred flight
// dump the audit callback requested mid-tick. The steady-state path
// (no transitions) is allocation-free: the scratch record refills
// preallocated slices and Record copies into preallocated slots.
func (o *serverObs) noteProvenance(s *Server, now time.Time, alloc *core.Allocation, snap *hypervisor.Snapshot, dt float64) {
	if o == nil {
		return
	}
	if !o.prevTickWall.IsZero() {
		o.tickSkew.Set(now.Sub(o.prevTickWall).Seconds() - o.interval.Seconds())
	}
	o.prevTickWall = now

	if alloc.Prov.Tier != o.prevTier {
		if o.prevTier != "" {
			o.journal.Append(alloc.Tick, "tier_switch", alloc.Prov.Tier,
				fmt.Sprintf("%s -> %s: %s", o.prevTier, alloc.Prov.Tier, alloc.Prov.TierReason))
		}
		o.prevTier = alloc.Prov.Tier
	}
	if alloc.Degraded != o.prevDegraded {
		if alloc.Degraded {
			o.journal.Append(alloc.Tick, "degraded", "", alloc.DegradedReason)
		} else {
			o.journal.Append(alloc.Tick, "recovered", "", "")
		}
		o.prevDegraded = alloc.Degraded
	}
	compiles, compileErrs := s.est.PlanCompileStats()
	if compiles != o.prevCompiles {
		o.journal.Append(alloc.Tick, "plan_recompile", "",
			fmt.Sprintf("worth-plan compile #%d", compiles))
		o.prevCompiles = compiles
	}
	if compileErrs != o.prevCompileErrs {
		o.journal.Append(alloc.Tick, "plan_compile_error", "",
			fmt.Sprintf("worth-plan compile failure #%d (ticks fall to the fallback policy until the model changes)", compileErrs))
		o.prevCompileErrs = compileErrs
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
	rec.FullTabulation = alloc.Prov.FullTabulation
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
	o.flight.Record(rec)

	if o.pendingDump != "" {
		o.lastDump.Store(o.flight.Dump(o.pendingDump))
		o.journal.Append(alloc.Tick, "flight_dump", "", o.pendingDump)
		o.log.Warn("flight dump triggered", "tick", alloc.Tick, "reason", o.pendingDump)
		o.pendingDump = ""
	}
}

func (o *serverObs) noteTickError(err error) {
	if o == nil {
		return
	}
	o.tickErrors.Inc()
	o.log.Error("tick failed", "err", err)
}

// instrumented wraps an endpoint handler with the per-path request
// counter and latency histogram. Uninstrumented servers dispatch
// straight through (one atomic load, no time.Now).
func (s *Server) instrumented(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o := s.telemetry.Load()
		if o == nil {
			h(w, r)
			return
		}
		start := time.Now()
		h(w, r)
		if hm, ok := o.http[path]; ok {
			hm.reqs.Inc()
			hm.lat.Observe(time.Since(start).Seconds())
		}
	}
}
