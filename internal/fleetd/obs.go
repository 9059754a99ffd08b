package fleetd

import (
	"strconv"
	"strings"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/fleet"
	"vmpower/internal/obs"
	"vmpower/internal/serve"
	"vmpower/internal/shapley"
)

// hostStates enumerates the fleet host states so the
// vmpower_fleet_hosts{state=...} gauge family is fixed at startup.
var hostStates = []fleet.HostState{
	fleet.HostHealthy, fleet.HostDegraded, fleet.HostQuarantined,
	fleet.HostDraining, fleet.HostDrained,
}

// lifecycleTypes is the fixed journal vocabulary for roster/drain
// events, bounding the vmpower_fleet_lifecycle_events_total label set.
var lifecycleTypes = []string{
	fleet.EventPowerOn, fleet.EventPowerOff,
	fleet.EventHotplug, fleet.EventRemove,
	fleet.EventMigrateStart, fleet.EventMigrateFinish,
	fleet.EventDrainStart, fleet.EventDrainFinish, fleet.EventUndrain,
}

// serverObs bundles the fleet daemon's observability surface: the shared
// part (journal, flight recorder, encode errors, tick skew, dump
// trigger) and fleetd's own families. All methods are nil-safe: an
// uninstrumented Server carries a nil *serverObs and pays one atomic
// load per tick.
type serverObs struct {
	*serve.Telemetry

	ticks       *obs.Counter
	tickErrors  *obs.Counter
	degraded    *obs.Counter
	quarantines *obs.Counter
	readmits    *obs.Counter
	unaccounted *obs.Gauge
	lastTick    *obs.Gauge
	measured    *obs.Gauge
	dynamic     *obs.Gauge
	tickLat     *obs.Histogram
	hostsBy     map[fleet.HostState]*obs.Gauge
	tenantWatts map[string]*obs.Gauge
	hostWatts   map[int]*obs.Gauge

	// Fleet-level conservation audit counters (the per-host solver audit
	// uses core's vmpower_audit_* family on the same registry).
	fleetAuditChecks     *obs.Counter
	fleetAuditViolations *obs.Counter

	// Lifecycle surface: one counter per journal event type (fixed
	// vocabulary), plus the migration ledger gauges.
	lifecycle    map[string]*obs.Counter
	migActive    *obs.Gauge
	migCompleted *obs.Counter
	migAborted   *obs.Counter

	// Step-goroutine state (same single-driver contract as Server.Step):
	// per-host edge detection and the reusable flight-record scratch.
	order      []string // VM names, admission order (grows on hot-plug)
	prevStates []fleet.HostState
	prevTiers  []string
	scratch    obs.FlightRecord
}

// Instrument activates metrics and structured logging for the fleet
// daemon, and instruments the shapley and core packages on the same
// registry so one scrape covers every host's solver and worth-plan
// cache. Call it before Handler: only an instrumented handler mounts
// /metrics and counts requests per route. interval is the expected Step
// cadence (the /healthz stall threshold is 3x it); <= 0 defaults to
// 1 s. Instrument(nil, ...) deactivates everything.
func (s *Server) Instrument(reg *obs.Registry, log *obs.Logger, interval time.Duration) {
	if reg == nil {
		s.telemetry.Store(nil)
		s.core.Instrument(nil)
		shapley.Instrument(nil)
		core.Instrument(nil)
		return
	}
	tenants := s.f.Tenants()
	o := &serverObs{
		ticks: reg.Counter("vmpower_fleet_ticks_total", "fleet estimation ticks completed"),
		tickErrors: reg.Counter("vmpower_fleet_tick_errors_total",
			"fleet estimation ticks that failed entirely"),
		degraded: reg.Counter("vmpower_fleet_degraded_ticks_total",
			"fleet ticks with at least one degraded or quarantined host"),
		quarantines: reg.Counter("vmpower_fleet_quarantines_total",
			"host transitions into quarantine"),
		readmits: reg.Counter("vmpower_fleet_readmits_total",
			"host readmissions after a successful quarantine probe"),
		unaccounted: reg.Gauge("vmpower_fleet_unaccounted_vms",
			"VMs on quarantined hosts at the last tick (no allocation)"),
		lastTick: reg.Gauge("vmpower_fleet_last_tick_timestamp_seconds",
			"unix time of the last fleet tick"),
		measured: reg.Gauge("vmpower_fleet_measured_watts",
			"summed meter readings across accounting hosts at the last tick"),
		dynamic: reg.Gauge("vmpower_fleet_dynamic_watts",
			"summed dynamic (above-idle) power across accounting hosts at the last tick"),
		tickLat: reg.Histogram("vmpower_fleet_tick_duration_seconds",
			"fleet tick latency (all hosts advanced and estimated)", obs.DefDurationBuckets),
		hostsBy:     make(map[fleet.HostState]*obs.Gauge, len(hostStates)),
		tenantWatts: make(map[string]*obs.Gauge, len(tenants)),
		hostWatts:   make(map[int]*obs.Gauge, s.f.Hosts()),
		fleetAuditChecks: reg.Counter("vmpower_fleet_audit_checks_total",
			"fleet ticks cross-checked for rollup energy conservation"),
		fleetAuditViolations: reg.Counter("vmpower_fleet_audit_violations_total",
			"fleet rollup conservation violations"),
		lifecycle: make(map[string]*obs.Counter, len(lifecycleTypes)),
		migActive: reg.Gauge("vmpower_fleet_migrations_active",
			"open live-migration copy windows at the last tick"),
		migCompleted: reg.Counter("vmpower_fleet_migrations_total",
			"live migrations closed", obs.L("result", "completed")),
		migAborted: reg.Counter("vmpower_fleet_migrations_total",
			"live migrations closed", obs.L("result", "aborted")),
		order:      s.f.VMNames(),
		prevStates: make([]fleet.HostState, s.f.Hosts()),
		prevTiers:  make([]string, s.f.Hosts()),
	}
	cliutil.BuildInfoMetric(reg)
	nVMs := len(o.order)
	o.scratch.Names = make([]string, 0, nVMs)
	o.scratch.PerVMWatts = make([]float64, 0, nVMs)
	o.scratch.PerVMEnergyWs = make([]float64, 0, nVMs)
	for _, st := range hostStates {
		o.hostsBy[st] = reg.Gauge("vmpower_fleet_hosts",
			"hosts by degradation state at the last tick", obs.L("state", st.String()))
	}
	for _, typ := range lifecycleTypes {
		o.lifecycle[typ] = reg.Counter("vmpower_fleet_lifecycle_events_total",
			"lifecycle events journaled", obs.L("type", typ))
	}
	for _, tenant := range tenants {
		o.tenantWatts[tenant] = reg.Gauge("vmpower_fleet_tenant_watts",
			"per-tenant attributed power at the last tick", obs.L("tenant", tenant))
	}
	for _, hs := range s.f.States() {
		o.hostWatts[hs.Host] = reg.Gauge("vmpower_fleet_host_measured_watts",
			"per-host meter reading at the last tick (0 while quarantined)",
			obs.L("host", strconv.Itoa(hs.Host)))
	}
	o.Telemetry = serve.NewTelemetry(reg, log, interval, obs.NewFlightRecorder(0, nVMs, 0))
	shapley.Instrument(reg)
	core.Instrument(reg)
	s.core.Instrument(o.Telemetry)
	s.telemetry.Store(o)
}

// noteTick publishes the rollup and per-host gauges of a completed
// fleet tick and emits warn lines for degraded/quarantined hosts.
func (o *serverObs) noteTick(now time.Time, dur time.Duration, tick *fleet.Tick, wire *TickJSON) {
	if o == nil {
		return
	}
	o.ticks.Inc()
	o.tickLat.Observe(dur.Seconds())
	o.lastTick.Set(float64(now.UnixNano()) / 1e9)
	o.measured.Set(tick.MeasuredTotal)
	o.dynamic.Set(tick.DynamicTotal)
	o.unaccounted.Set(float64(len(tick.Unaccounted)))
	if tick.Degraded {
		o.degraded.Inc()
	}
	if tick.NewQuarantines > 0 {
		o.quarantines.Add(uint64(tick.NewQuarantines))
	}
	if tick.Readmits > 0 {
		o.readmits.Add(uint64(tick.Readmits))
	}
	counts := map[fleet.HostState]int{}
	for _, hs := range tick.Hosts {
		counts[hs.State]++
		o.hostWatts[hs.Host].Set(hs.MeasuredWatts)
		// Draining/drained are planned maintenance states, not faults:
		// their lifecycle events already log the transition once.
		planned := hs.State == fleet.HostDraining || hs.State == fleet.HostDrained
		if hs.State != fleet.HostHealthy && !planned && o.Log.Enabled(obs.LevelWarn) {
			o.Log.Warn("host not healthy",
				"tick", tick.Tick,
				"host", hs.Host,
				"state", hs.State.String(),
				"reason", hs.Reason)
		}
	}
	for _, st := range hostStates {
		o.hostsBy[st].Set(float64(counts[st]))
	}
	for tenant, w := range wire.PerTenant {
		g, ok := o.tenantWatts[tenant]
		if !ok {
			// A hot-plugged VM can introduce a tenant the fleet had never
			// billed when Instrument ran; register its gauge on first sight
			// (noteTick runs on the Step goroutine only).
			g = o.Reg.Gauge("vmpower_fleet_tenant_watts",
				"per-tenant attributed power at the last tick", obs.L("tenant", tenant))
			o.tenantWatts[tenant] = g
		}
		g.Set(w)
	}
	// Tenants wholly on quarantined hosts drop out of PerTenant; zero
	// their gauges rather than freezing the last attributed value.
	for tenant, g := range o.tenantWatts {
		if _, ok := wire.PerTenant[tenant]; !ok {
			g.Set(0)
		}
	}
	if o.Log.Enabled(obs.LevelDebug) {
		o.Log.Debug("fleet tick",
			"tick", tick.Tick,
			"measured_watts", tick.MeasuredTotal,
			"dynamic_watts", tick.DynamicTotal,
			"degraded_hosts", tick.DegradedHosts,
			"quarantined_hosts", tick.QuarantinedHosts)
	}
}

// noteProvenance runs the tick's provenance bookkeeping from the Step
// goroutine: per-host transition events in fixed host order (exactly
// one event per state edge), per-host tier switches, the fleet rollup
// conservation audit, the fleet flight record, and — last, so the dump
// includes the triggering tick — any armed flight dump (quarantine,
// conservation violation, or a per-host solver audit violation relayed
// by EnableAudit).
func (o *serverObs) noteProvenance(s *Server, now time.Time, tick *fleet.Tick) {
	if o == nil {
		return
	}
	// Lifecycle events first: each fleet event is drained into exactly
	// one Tick, so appending the batch here gives the journal the
	// exactly-once guarantee for free. Hot-plugs also grow the flight
	// recorder's name order.
	for _, ev := range tick.Events {
		o.Journal.Append(tick.Tick, ev.Type, ev.Subject, ev.Detail)
		if c, ok := o.lifecycle[ev.Type]; ok {
			c.Inc()
		}
		switch ev.Type {
		case fleet.EventHotplug:
			o.order = append(o.order, ev.Subject)
		case fleet.EventMigrateFinish:
			if strings.HasPrefix(ev.Detail, "aborted") {
				o.migAborted.Inc()
			} else {
				o.migCompleted.Inc()
			}
		}
	}
	o.migActive.Set(float64(len(tick.Migrations)))

	for i := range tick.Hosts {
		hs := &tick.Hosts[i]
		subject := "host:" + strconv.Itoa(hs.Host)
		if prev := o.prevStates[i]; hs.State != prev {
			switch {
			case hs.State == fleet.HostQuarantined:
				o.Journal.Append(tick.Tick, "quarantine", subject, hs.Reason)
				o.ArmDump("quarantine: " + subject)
			case prev == fleet.HostQuarantined:
				o.Journal.Append(tick.Tick, "readmit", subject, "readmitted "+hs.State.String())
			case hs.State == fleet.HostDraining, hs.State == fleet.HostDrained,
				prev == fleet.HostDraining, prev == fleet.HostDrained:
				// Drain transitions already journal as drain_start /
				// drain_finish / undrain lifecycle events; a state edge on
				// top would double-report them.
			case hs.State == fleet.HostDegraded:
				o.Journal.Append(tick.Tick, "degraded", subject, hs.Reason)
			default:
				o.Journal.Append(tick.Tick, "recovered", subject, "")
			}
			o.prevStates[i] = hs.State
		}
		if hs.Tier != "" && hs.Tier != o.prevTiers[i] {
			if o.prevTiers[i] != "" {
				o.Journal.Append(tick.Tick, "tier_switch", subject, o.prevTiers[i]+" -> "+hs.Tier)
			}
			o.prevTiers[i] = hs.Tier
		}
	}

	// Rollup conservation: the per-host games are independent, so by
	// Additivity the fleet sums must tie out exactly (see
	// fleet.AuditConservation). A violation is an aggregation bug.
	o.fleetAuditChecks.Inc()
	for _, p := range s.f.AuditConservation(tick, 0) {
		o.fleetAuditViolations.Inc()
		o.Journal.Append(tick.Tick, "audit_violation", "", p)
		o.Log.Warn("fleet conservation violation", "tick", tick.Tick, "detail", p)
		o.ArmDump("fleet-audit")
	}

	// The fleet flight record lists only accounted VMs (Names aligned
	// with PerVMWatts); VMs on quarantined hosts are absent, exactly as
	// in Tick.PerVM. There is no fleet-wide snapshot, so States stays
	// empty, and the tier is per host — summarized when uniform.
	rec := &o.scratch
	tier, reason := "", ""
	rejected, holdover := 0, 0
	for i := range tick.Hosts {
		hs := &tick.Hosts[i]
		rejected += hs.RejectedSamples
		if hs.HoldoverAgeTicks > holdover {
			holdover = hs.HoldoverAgeTicks
		}
		if hs.Tier == "" {
			continue
		}
		switch tier {
		case "", hs.Tier:
			tier = hs.Tier
		default:
			tier = "mixed"
		}
		if hs.State != fleet.HostHealthy && reason == "" {
			reason = hs.State.String() + ": " + hs.Reason
		}
	}
	var sumVM float64
	rec.Names = rec.Names[:0]
	rec.PerVMWatts = rec.PerVMWatts[:0]
	rec.PerVMEnergyWs = rec.PerVMEnergyWs[:0]
	dt := s.f.TickSeconds()
	for _, name := range o.order {
		w, ok := tick.PerVM[name]
		if !ok {
			continue
		}
		sumVM += w
		rec.Names = append(rec.Names, name)
		rec.PerVMWatts = append(rec.PerVMWatts, w)
		rec.PerVMEnergyWs = append(rec.PerVMEnergyWs, w*dt)
	}
	residual := sumVM - tick.DynamicTotal
	if residual < 0 {
		residual = -residual
	}
	rec.Tick = tick.Tick
	rec.UnixNanos = now.UnixNano()
	rec.MeasuredWatts = tick.MeasuredTotal
	rec.DynamicWatts = tick.DynamicTotal
	rec.Tier = tier
	rec.TierReason = ""
	rec.SymClasses = 0
	rec.DirtyVMs = 0
	rec.Evaluated = 0
	rec.Reused = 0
	rec.ModelResidualWatts = 0
	rec.ModelResidualRel = 0
	rec.Degraded = tick.Degraded
	rec.DegradedReason = reason
	rec.HoldoverAgeTicks = holdover
	rec.RejectedSamples = rejected
	rec.EfficiencyResidualWatts = residual
	rec.States = rec.States[:0]
	o.Flight.Record(rec)
	o.FireDump(tick.Tick)
}

func (o *serverObs) noteTickError(err error) {
	if o == nil {
		return
	}
	o.tickErrors.Inc()
	o.Log.Error("fleet tick failed", "err", err)
}
