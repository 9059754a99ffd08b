// Package fleetd exposes a multi-host fleet accounting pipeline over
// HTTP/JSON, the way a datacenter operator would consume it: per-VM and
// per-tenant allocations rolled up across the host pool, per-host
// degradation state (healthy / degraded / quarantined), and cumulative
// per-tenant energy counters with the degraded-tick slice broken out for
// billing. The daemon in cmd/fleetd mounts Handler on a listener and
// drives Step at a fixed interval.
//
// The health ladder mirrors the fleet's fault isolation: /healthz stays
// 200 "degraded" (with per-host reasons) while any host still produces
// allocations, and only flips to 503 "lost" when every host in the pool
// is quarantined.
package fleetd

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/fleet"
	"vmpower/internal/scenario"
	"vmpower/internal/serve"
)

// HostJSON is the wire form of one host's status.
type HostJSON struct {
	Host             int      `json:"host"`
	State            string   `json:"state"`
	Reason           string   `json:"reason,omitempty"`
	MeterLost        bool     `json:"meter_lost,omitempty"`
	QuarantinedTicks int      `json:"quarantined_ticks,omitempty"`
	HoldoverAgeTicks int      `json:"holdover_age_ticks,omitempty"`
	RejectedSamples  int      `json:"rejected_samples,omitempty"`
	MeasuredWatts    float64  `json:"measured_watts"`
	DynamicWatts     float64  `json:"dynamic_watts"`
	Tier             string   `json:"tier,omitempty"`
	VMs              []string `json:"vms"`
}

// EventJSON is the wire form of one lifecycle event journaled on a tick.
type EventJSON struct {
	Type    string `json:"type"`
	Subject string `json:"subject"`
	Detail  string `json:"detail,omitempty"`
}

// MigrationJSON is the wire form of one open live-migration copy window
// (mirrors fleet.MigrationStatus: both sides metered, the ledger says
// which sides the rollup accounted).
type MigrationJSON struct {
	Name          string  `json:"name"`
	From          int     `json:"from"`
	To            int     `json:"to"`
	CopyTick      int     `json:"copy_tick"`
	CopyTicks     int     `json:"copy_ticks"`
	FromWatts     float64 `json:"from_watts"`
	ToWatts       float64 `json:"to_watts"`
	FromAccounted bool    `json:"from_accounted"`
	ToAccounted   bool    `json:"to_accounted"`
}

// TickJSON is the wire form of one fleet tick.
type TickJSON struct {
	Tick               int                `json:"tick"`
	MeasuredWatts      float64            `json:"measured_watts"`
	DynamicWatts       float64            `json:"dynamic_watts"`
	PerVM              map[string]float64 `json:"per_vm_watts"`
	PerTenant          map[string]float64 `json:"per_tenant_watts"`
	Degraded           bool               `json:"degraded,omitempty"`
	DegradedHosts      int                `json:"degraded_hosts,omitempty"`
	QuarantinedHosts   int                `json:"quarantined_hosts,omitempty"`
	DrainingHosts      int                `json:"draining_hosts,omitempty"`
	DrainedHosts       int                `json:"drained_hosts,omitempty"`
	IdleUnmeteredHosts int                `json:"idle_unmetered_hosts,omitempty"`
	Unaccounted        []string           `json:"unaccounted,omitempty"`
	Events             []EventJSON        `json:"events,omitempty"`
	Migrations         []MigrationJSON    `json:"migrations,omitempty"`
	Hosts              []HostJSON         `json:"hosts"`
}

// StatusJSON is the wire form of the daemon status.
type StatusJSON struct {
	Hosts         int        `json:"hosts"`
	EmptyHosts    int        `json:"empty_hosts,omitempty"`
	VMs           []string   `json:"vms"`
	Tenants       []string   `json:"tenants"`
	Ticks         int        `json:"ticks_estimated"`
	Degraded      bool       `json:"degraded"`
	DegradedTicks int        `json:"degraded_ticks"`
	Quarantines   int        `json:"quarantines"`
	Readmits      int        `json:"readmits"`
	HostStates    []HostJSON `json:"host_states"`
}

// GroupJSON is the wire form of one autoscale group.
type GroupJSON struct {
	Prefix  string `json:"prefix"`
	Min     int    `json:"min"`
	Max     int    `json:"max"`
	Target  int    `json:"target"`
	Running int    `json:"running"`
	Members int    `json:"members"`
}

// ScenarioJSON is the wire form of /api/v1/scenario: scripted-event
// progress, the active autoscale groups, and the fleet's migration
// totals.
type ScenarioJSON struct {
	Events              int         `json:"events"`
	Applied             int         `json:"applied"`
	Refused             int         `json:"refused"`
	NextTick            int         `json:"next_tick,omitempty"`
	Done                bool        `json:"done"`
	Groups              []GroupJSON `json:"groups,omitempty"`
	MigrationsActive    int         `json:"migrations_active"`
	MigrationsCompleted int         `json:"migrations_completed"`
	MigrationsAborted   int         `json:"migrations_aborted"`
}

// EnergyJSON is the wire form of the cumulative energy counters. The
// degraded slice is the watt-hours integrated from holdover ticks —
// included in the per-tenant totals, broken out for billing.
// Seconds is the real integrated time (ticks × tick interval), not the
// tick count.
type EnergyJSON struct {
	Seconds             float64            `json:"seconds"`
	PerTenantWh         map[string]float64 `json:"per_tenant_wh"`
	DegradedPerTenantWh map[string]float64 `json:"degraded_per_tenant_wh,omitempty"`
	TotalWh             float64            `json:"total_wh"`
	DegradedWh          float64            `json:"degraded_wh"`
}

// HealthJSON is the wire form of /healthz.
type HealthJSON struct {
	// Status is "ok", "degraded" (some hosts degraded or quarantined,
	// the rest still accounting — 200), "lost" (every host quarantined —
	// 503), "starting", "stalled" or "error" (503).
	Status             string  `json:"status"`
	Hosts              int     `json:"hosts"`
	HealthyHosts       int     `json:"healthy_hosts"`
	DegradedHosts      int     `json:"degraded_hosts"`
	QuarantinedHosts   int     `json:"quarantined_hosts"`
	DrainingHosts      int     `json:"draining_hosts,omitempty"`
	DrainedHosts       int     `json:"drained_hosts,omitempty"`
	Ticks              int     `json:"ticks_estimated"`
	LastTickAgeSeconds float64 `json:"last_tick_age_seconds,omitempty"`
	// HostReasons maps host index → degradation/quarantine reason for
	// every non-healthy host.
	HostReasons map[string]string `json:"host_reasons,omitempty"`
	Error       string            `json:"error,omitempty"`
}

// Server aggregates fleet ticks and serves them.
type Server struct {
	f *fleet.Fleet
	// engine is the optional lifecycle scenario driver; owned by the Step
	// goroutine (its Apply mutates the fleet roster between ticks).
	engine *scenario.Engine

	// telemetry is nil until Instrument; Step pays one atomic load to
	// find out. core holds its shared part for the HTTP surface.
	telemetry atomic.Pointer[serverObs]
	core      serve.Core
	now       func() time.Time

	// served is the tick-published, pre-encoded HTTP surface: one atomic
	// pointer swap per tick, cached bytes per request (nil until the
	// first tick — handlers fall back to the per-request path).
	served atomic.Pointer[servedSnapshot]

	mu            sync.RWMutex
	latest        *TickJSON
	energy        EnergyJSON
	degradedTicks int
	quarantines   int
	readmits      int
	// vms, tenants, hosts and emptyHosts are roster snapshots refreshed
	// by Step: handlers must not call fleet accessors directly once a
	// scenario can mutate the roster from the Step goroutine.
	vms        []string
	tenants    []string
	hosts      int
	emptyHosts int
	scenario   *ScenarioJSON

	// vmLog, tenantLog and hostLog back /api/v1/allocation?since=: the
	// bounded per-tick logs of the VMs, tenants and host rows that
	// changed.
	vmLog     *serve.Table[string, float64]
	tenantLog *serve.Table[string, float64]
	hostLog   *serve.Table[int, *HostJSON]
}

// New builds a Server over a (to-be-)calibrated fleet.
func New(f *fleet.Fleet) (*Server, error) {
	if f == nil {
		return nil, errors.New("fleetd: nil fleet")
	}
	s := &Server{
		f: f, now: time.Now,
		vms: f.VMNames(), tenants: f.Tenants(),
		hosts: f.Hosts(), emptyHosts: f.EmptyHosts(),
		vmLog:     serve.NewTable[string](serve.Equal[float64]),
		tenantLog: serve.NewTable[string](serve.Equal[float64]),
		hostLog:   serve.NewTable[int](hostEqual),
	}
	s.core.Start(s.now())
	return s, nil
}

// SetScenario installs a lifecycle scenario engine: every Step first
// applies the events due for the next tick (and one autoscale pass),
// then advances the fleet. Call before the serve loop starts; the
// engine is driven from the Step goroutine only.
func (s *Server) SetScenario(e *scenario.Engine) {
	s.engine = e
	s.mu.Lock()
	s.scenario = s.scenarioJSON()
	s.mu.Unlock()
}

// scenarioJSON snapshots scenario progress. Step-goroutine only (the
// engine and fleet counters are not lock-protected); callers hold s.mu
// for the write to s.scenario.
func (s *Server) scenarioJSON() *ScenarioJSON {
	st := s.engine.Status()
	out := &ScenarioJSON{
		Events:   st.Events,
		Applied:  st.Applied,
		Refused:  st.Refused,
		NextTick: st.NextTick,
		Done:     s.engine.Done(),
	}
	for _, g := range st.Groups {
		out.Groups = append(out.Groups, GroupJSON{
			Prefix: g.Prefix, Min: g.Min, Max: g.Max,
			Target: g.Target, Running: g.Running, Members: g.Members,
		})
	}
	out.MigrationsActive = s.f.ActiveMigrations()
	out.MigrationsCompleted, out.MigrationsAborted = s.f.MigrationTotals()
	return out
}

// Step advances the fleet one tick and records the result for the HTTP
// surface. Like powerd.Server.Step it must be driven from a single
// goroutine (it advances host clocks) but may run concurrently with any
// handler: a tick's outputs are published in one critical section.
func (s *Server) Step() (*fleet.Tick, error) {
	o := s.telemetry.Load()
	start := time.Now()
	if s.engine != nil {
		s.engine.Apply()
	}
	tick, err := s.f.Step()
	if err != nil {
		o.noteTickError(err)
		s.core.Failed(err)
		return nil, err
	}
	wire := s.record(tick)
	now := s.now()
	o.noteTick(now, time.Since(start), tick, wire)
	o.noteProvenance(s, now, tick)
	return tick, nil
}

// record publishes one fleet tick together with the roster, energy and
// scenario progress the fleet holds after it, in one critical section,
// and returns the tick's wire form. Step goroutine only: it reads the
// fleet.
func (s *Server) record(tick *fleet.Tick) *TickJSON {
	wire := wireTick(tick)
	energy := energyJSON(s.f)
	vms := s.f.VMNames()
	tenants := s.f.Tenants()
	hosts, emptyHosts := s.f.Hosts(), s.f.EmptyHosts()
	var scen *ScenarioJSON
	if s.engine != nil {
		scen = s.scenarioJSON()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latest = wire
	s.energy = energy
	s.vms = vms
	s.tenants = tenants
	s.hosts = hosts
	s.emptyHosts = emptyHosts
	if scen != nil {
		s.scenario = scen
	}
	s.core.Ticked(s.now())
	if tick.Degraded {
		s.degradedTicks++
	}
	s.quarantines += tick.NewQuarantines
	s.readmits += tick.Readmits
	s.publishLocked(wire)
	return wire
}

// EnableAudit installs the per-tick invariant auditor (see core.Auditor)
// on every host's estimator. Violations are journaled with a
// "host:<i>" subject, logged, and arm a flight dump that fires after the
// tick's record lands. The fleet-level rollup conservation check runs
// unconditionally on instrumented servers; this adds the per-host solver
// checks (Efficiency residual, share bounds, sampled deep re-solves).
// Call before the serve loop starts.
func (s *Server) EnableAudit(cfg core.AuditConfig) {
	s.f.EnableAudit(cfg, func(host int, v core.AuditViolation) {
		o := s.telemetry.Load()
		if o == nil {
			return
		}
		// May fire from fleet worker goroutines (Parallelism > 1):
		// Journal.Append and ArmDump are both safe for concurrent use.
		subject := "host:" + strconv.Itoa(host)
		o.Journal.Append(v.Tick, "audit_violation", subject, v.Kind+": "+v.Detail)
		o.Log.Warn("audit violation", "tick", v.Tick, "host", host, "kind", v.Kind, "detail", v.Detail)
		o.ArmDump("audit: " + v.Kind + " on " + subject)
	})
}

// DumpFlight writes the flight-recorder ring as indented JSON — the
// SIGQUIT handler's path. It fails only when the server was never
// instrumented (no flight recorder exists then).
func (s *Server) DumpFlight(w io.Writer, reason string) error {
	return s.core.DumpFlight(w, reason)
}

// wireTick converts a fleet tick to its wire form.
func wireTick(tick *fleet.Tick) *TickJSON {
	wire := &TickJSON{
		Tick:               tick.Tick,
		MeasuredWatts:      tick.MeasuredTotal,
		DynamicWatts:       tick.DynamicTotal,
		PerVM:              make(map[string]float64, len(tick.PerVM)),
		PerTenant:          make(map[string]float64, len(tick.PerTenant)),
		Degraded:           tick.Degraded,
		DegradedHosts:      tick.DegradedHosts,
		QuarantinedHosts:   tick.QuarantinedHosts,
		DrainingHosts:      tick.DrainingHosts,
		DrainedHosts:       tick.DrainedHosts,
		IdleUnmeteredHosts: tick.IdleUnmeteredHosts,
		Unaccounted:        append([]string(nil), tick.Unaccounted...),
		Hosts:              wireHosts(tick.Hosts),
	}
	for _, ev := range tick.Events {
		wire.Events = append(wire.Events, EventJSON{Type: ev.Type, Subject: ev.Subject, Detail: ev.Detail})
	}
	for _, m := range tick.Migrations {
		wire.Migrations = append(wire.Migrations, MigrationJSON{
			Name: m.Name, From: m.From, To: m.To,
			CopyTick: m.CopyTick, CopyTicks: m.CopyTicks,
			FromWatts: m.FromWatts, ToWatts: m.ToWatts,
			FromAccounted: m.FromAccounted, ToAccounted: m.ToAccounted,
		})
	}
	for name, w := range tick.PerVM {
		wire.PerVM[name] = w
	}
	for tenant, w := range tick.PerTenant {
		wire.PerTenant[tenant] = w
	}
	return wire
}

func wireHosts(statuses []fleet.HostStatus) []HostJSON {
	out := make([]HostJSON, len(statuses))
	for i, hs := range statuses {
		out[i] = HostJSON{
			Host:             hs.Host,
			State:            hs.State.String(),
			Reason:           hs.Reason,
			MeterLost:        hs.MeterLost,
			QuarantinedTicks: hs.QuarantinedTicks,
			HoldoverAgeTicks: hs.HoldoverAgeTicks,
			RejectedSamples:  hs.RejectedSamples,
			MeasuredWatts:    hs.MeasuredWatts,
			DynamicWatts:     hs.DynamicWatts,
			Tier:             hs.Tier,
			VMs:              hs.VMs,
		}
	}
	return out
}

// energyJSON snapshots the fleet's cumulative energy counters. Called
// from Step's goroutine only (the fleet's maps are not lock-protected).
func energyJSON(f *fleet.Fleet) EnergyJSON {
	out := EnergyJSON{
		Seconds:     f.ElapsedSeconds(),
		PerTenantWh: f.EnergyWhByTenant(),
	}
	deg := f.DegradedEnergyWhByTenant()
	if len(deg) > 0 {
		out.DegradedPerTenantWh = deg
	}
	out.TotalWh = sumByTenant(out.PerTenantWh)
	out.DegradedWh = sumByTenant(deg)
	return out
}

// sumByTenant adds the values of m in ascending tenant order: float
// addition is not associative, so summing in map order would let the
// total's last digit vary from run to run.
func sumByTenant(m map[string]float64) float64 {
	tenants := make([]string, 0, len(m))
	for t := range m {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	var sum float64
	for _, t := range tenants {
		sum += m[t]
	}
	return sum
}

// Handler returns the HTTP API:
//
//	GET /api/v1/status     — pool layout, per-host states, transition counts
//	GET /api/v1/allocation — the most recent fleet tick
//	GET /api/v1/allocation?since=<tick> — only what changed after <tick> (see TickDeltaJSON)
//	GET /api/v1/energy     — cumulative per-tenant energy (degraded slice broken out)
//	GET /api/v1/scenario   — lifecycle scenario progress (404 without a scenario)
//	GET /healthz           — liveness ladder (503 only when all hosts are lost)
//
// When the server is instrumented (call Instrument before Handler), the
// mux additionally serves GET /metrics, GET /metrics.json,
// GET /api/v1/events?since=<seq> (the bounded tick event journal) and
// GET /debug/flight (a flight-recorder dump; ?trigger=last returns the
// most recent quarantine/violation-triggered dump instead of the live
// ring).
func (s *Server) Handler() http.Handler {
	mux := s.core.Mux()
	s.core.Handle(mux, "/api/v1/status", s.handleStatus)
	s.core.Handle(mux, "/api/v1/allocation", s.handleAllocation)
	s.core.Handle(mux, "/api/v1/energy", s.handleEnergy)
	s.core.Handle(mux, "/api/v1/scenario", s.handleScenario)
	s.core.Handle(mux, "/healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports fleet liveness. The ladder, most to least
// severe: "error" (503, the last Step failed), "starting"/"stalled"
// (503 once the loop is quiet past three intervals), "lost" (503, every
// host quarantined — the fleet is ticking but accounts for nothing),
// "degraded" (200, some hosts degraded or quarantined with per-host
// reasons; the rest of the pool still accounts), "ok" (200).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	latest := s.latest
	// The tick-published roster count, not s.f.Hosts(): handlers must
	// not touch fleet accessors while a scenario mutates the roster on
	// the Step goroutine (pinned by TestRosterScrapeRace).
	hosts := s.hosts
	live := s.core.Health(s.now())
	s.mu.RUnlock()

	h := HealthJSON{
		Status:             live.Status,
		Hosts:              hosts,
		Ticks:              live.Ticks,
		LastTickAgeSeconds: live.AgeSeconds,
		Error:              live.Error,
	}
	status := live.Code
	if h.Status == "" {
		h.DegradedHosts = latest.DegradedHosts
		h.QuarantinedHosts = latest.QuarantinedHosts
		h.DrainingHosts = latest.DrainingHosts
		h.DrainedHosts = latest.DrainedHosts
		// Draining/drained hosts are planned maintenance, not
		// degradation: they leave the healthy count but never flip the
		// ladder off "ok" on their own.
		h.HealthyHosts = h.Hosts - h.DegradedHosts - h.QuarantinedHosts - h.DrainingHosts - h.DrainedHosts
		for _, hj := range latest.Hosts {
			if hj.State != fleet.HostHealthy.String() {
				if h.HostReasons == nil {
					h.HostReasons = make(map[string]string)
				}
				h.HostReasons[strconv.Itoa(hj.Host)] = fmt.Sprintf("%s: %s", hj.State, hj.Reason)
			}
		}
		switch {
		case h.QuarantinedHosts == h.Hosts:
			h.Status = "lost"
			status = http.StatusServiceUnavailable
		case latest.Degraded:
			h.Status = "degraded"
		default:
			h.Status = "ok"
		}
	}
	s.core.WriteJSON(w, status, h)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	if snap := s.served.Load(); snap != nil && snap.status.OK() {
		s.core.WriteCached(w, snap.status)
		return
	}
	s.mu.RLock()
	st := s.statusLocked()
	s.mu.RUnlock()
	s.core.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleAllocation(w http.ResponseWriter, r *http.Request) {
	snap := s.served.Load()
	// RawQuery check first: r.URL.Query() allocates, and the common
	// full-scrape GET must stay allocation-free.
	if r.URL.RawQuery != "" {
		if raw := r.URL.Query().Get("since"); raw != "" {
			var deltas *serve.Deltas
			if snap != nil {
				deltas = snap.deltas
			}
			s.core.ServeDelta(w, raw, deltas, "no tick yet")
			return
		}
	}
	if snap != nil && snap.allocation.OK() {
		s.core.WriteCached(w, snap.allocation)
		return
	}
	s.mu.RLock()
	latest := s.latest
	s.mu.RUnlock()
	if latest == nil {
		s.core.WriteError(w, http.StatusNotFound, "no tick yet")
		return
	}
	s.core.WriteJSON(w, http.StatusOK, latest)
}

// handleScenario reports lifecycle scenario progress: 404 when the
// daemon runs without a scenario.
func (s *Server) handleScenario(w http.ResponseWriter, _ *http.Request) {
	if snap := s.served.Load(); snap != nil && snap.scenario.OK() {
		s.core.WriteCached(w, snap.scenario)
		return
	}
	s.mu.RLock()
	scen := s.scenario
	s.mu.RUnlock()
	if scen == nil {
		s.core.WriteError(w, http.StatusNotFound, "no scenario configured")
		return
	}
	s.core.WriteJSON(w, http.StatusOK, scen)
}

func (s *Server) handleEnergy(w http.ResponseWriter, _ *http.Request) {
	if snap := s.served.Load(); snap != nil && snap.energy.OK() {
		s.core.WriteCached(w, snap.energy)
		return
	}
	s.mu.RLock()
	energy := s.energyLocked()
	s.mu.RUnlock()
	s.core.WriteJSON(w, http.StatusOK, energy)
}
