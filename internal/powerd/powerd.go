// Package powerd exposes a running power-accounting pipeline over
// HTTP/JSON, the way a datacenter operator would consume it: live per-VM
// allocations, a bounded history ring, and cumulative per-VM energy
// counters for billing. The daemon in cmd/powerd mounts Handler on a
// listener and drives Step at 1 Hz.
package powerd

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/serve"
)

// AllocationJSON is the wire form of one tick's allocation.
type AllocationJSON struct {
	Tick          int                `json:"tick"`
	MeasuredWatts float64            `json:"measured_watts"`
	DynamicWatts  float64            `json:"dynamic_watts"`
	Method        string             `json:"method"`
	PerVM         map[string]float64 `json:"per_vm_watts"`
	// Degraded marks a tick served from holdover or fallback rather than a
	// fresh plausible meter reading; DegradedReason and HoldoverAgeTicks
	// carry the cause and staleness.
	Degraded         bool   `json:"degraded,omitempty"`
	DegradedReason   string `json:"degraded_reason,omitempty"`
	HoldoverAgeTicks int    `json:"holdover_age_ticks,omitempty"`
	RejectedSamples  int    `json:"rejected_samples,omitempty"`
}

// StatusJSON is the wire form of the daemon status.
type StatusJSON struct {
	Calibrated bool     `json:"calibrated"`
	IdleWatts  float64  `json:"idle_watts"`
	VMs        []string `json:"vms"`
	Ticks      int      `json:"ticks_estimated"`
	// Degraded reports whether the most recent tick was degraded;
	// DegradedTicks and RejectedSamples are cumulative since start.
	Degraded           bool   `json:"degraded"`
	DegradedTicks      int    `json:"degraded_ticks"`
	RejectedSamples    int    `json:"rejected_samples"`
	LastDegradedReason string `json:"last_degraded_reason,omitempty"`
}

// EnergyJSON is the wire form of the cumulative energy counters. Seconds
// is the real integrated time — ticks × tick interval — not the tick
// count, so a daemon stepped at 250 ms reports 0.25 s per tick.
type EnergyJSON struct {
	Seconds float64            `json:"seconds"`
	PerVMWh map[string]float64 `json:"per_vm_wh"`
	TotalWh float64            `json:"total_wh"`
}

// Server aggregates allocations and serves them.
type Server struct {
	est   *core.Estimator
	names []string
	// vmsJSON is names as the status body's vms array, encoded once: the
	// roster is fixed at New.
	vmsJSON []byte

	// telemetry is nil until Instrument; Step pays one atomic load to
	// find out. core holds its shared part for the HTTP surface.
	telemetry atomic.Pointer[serverObs]
	core      serve.Core
	now       func() time.Time
	createdAt time.Time

	// served is the tick-published, pre-encoded HTTP surface: one
	// atomic pointer swap per tick, cached bytes per request (nil until
	// the first tick — handlers fall back to the per-request path).
	served atomic.Pointer[servedSnapshot]

	mu            sync.RWMutex
	interval      time.Duration
	latest        *AllocationJSON
	lastSnap      *hypervisor.Snapshot
	lastPow       float64
	history       []*AllocationJSON
	histCap       int
	energyWs      map[string]float64
	energySeconds float64
	ticks         int
	degradedTicks int
	rejected      int
	lastDegraded  string
	lastTickAt    time.Time
	lastErr       string
	// vmLog backs /api/v1/allocation?since=: the bounded per-tick log of
	// the VMs whose wire watts changed. keys are its names in ascending
	// order, the order the bodies list per-VM values in (nil before the
	// first tick).
	vmLog *serve.Table[string, float64]
	keys  []string

	// intMu single-flights the O(2^n) interaction matrix: one compute
	// and one encode per tick no matter how many scrapers ask.
	intMu   sync.Mutex
	intTick int
	intBody serve.Body
}

// InteractionsJSON is the wire form of the live interference matrix.
type InteractionsJSON struct {
	Tick int      `json:"tick"`
	VMs  []string `json:"vms"`
	// Watts[i][j] is the pairwise Shapley interaction of VMs i and j in
	// watts (negative = interference), indexed like VMs.
	Watts [][]float64 `json:"watts"`
}

// New builds a Server over a calibrated (or to-be-calibrated) estimator.
// names maps VM IDs (by index) to the names exposed on the wire; each
// names one VM, so no two may be equal.
func New(est *core.Estimator, names []string, historySize int) (*Server, error) {
	if est == nil {
		return nil, errors.New("powerd: nil estimator")
	}
	if len(names) != est.Host().Set().Len() {
		return nil, fmt.Errorf("powerd: %d names for %d VMs", len(names), est.Host().Set().Len())
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("powerd: duplicate VM name %q", name)
		}
		seen[name] = true
	}
	if historySize <= 0 {
		historySize = 300
	}
	names = append([]string(nil), names...)
	var vms serve.Encoder
	vms.Strings("", names)
	vmsJSON := vms.Bytes() // strings always encode
	return &Server{
		est:       est,
		names:     names,
		vmsJSON:   vmsJSON,
		histCap:   historySize,
		energyWs:  make(map[string]float64, len(names)),
		vmLog:     serve.NewTable[string](serve.Equal[float64]),
		interval:  time.Second,
		now:       time.Now,
		createdAt: time.Now(),
		intTick:   -1,
	}, nil
}

// SetInterval declares the wall-clock duration one Step covers, which the
// energy counters integrate over (watts × interval per tick). The default
// is 1 s; a daemon stepping at any other cadence must call this or its
// watt-hours are off by the ratio. Call it before the first Step — energy
// already accumulated is not rescaled.
func (s *Server) SetInterval(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("powerd: non-positive step interval %v", d)
	}
	s.mu.Lock()
	s.interval = d
	s.mu.Unlock()
	return nil
}

// Step advances the host clock one tick, estimates, and records the
// result for the HTTP surface. It returns the raw allocation.
//
// Step itself must be driven from a single goroutine (it mutates the
// host clock), but it may run concurrently with any HTTP handler: the
// tick's outputs — latest allocation, history, energy counters, and the
// snapshot/power pair the interactions endpoint recomputes from — are
// published in one critical section, so a concurrent request always
// observes one coherent tick, never a fresh allocation paired with a
// stale snapshot.
func (s *Server) Step() (*core.Allocation, error) {
	o := s.telemetry.Load()
	sp := o.span()
	s.est.Host().Advance(1)
	alloc, err := s.est.EstimateTickSpan(sp)
	if err != nil {
		o.noteTickError(err)
		s.mu.Lock()
		s.lastErr = err.Error()
		s.mu.Unlock()
		return nil, err
	}
	snap := s.est.Host().Collect()
	wire := s.record(alloc, &snap)
	sp.Mark("publish")
	sp.End()
	now := s.now()
	o.noteTick(now, s.est.Trained(), s.est.IdlePower(), alloc, wire)
	s.mu.RLock()
	dt := s.interval.Seconds()
	s.mu.RUnlock()
	o.noteProvenance(s, now, alloc, &snap, dt)
	return alloc, nil
}

// EnableAudit installs the per-tick invariant auditor (see core.Auditor)
// on the server's estimator. Each violation is journaled, logged, and —
// once per tick — arms a deferred flight dump that fires after the
// violating tick's record lands in the ring, so the dump always contains
// the evidence. Call before the serve loop starts (same contract as
// core.Estimator.SetAuditor). Violations never abort a tick.
func (s *Server) EnableAudit(cfg core.AuditConfig) {
	s.est.SetAuditor(core.NewAuditor(cfg, func(v core.AuditViolation) {
		o := s.telemetry.Load()
		if o == nil {
			return
		}
		o.Journal.Append(v.Tick, "audit_violation", v.Kind, v.Detail)
		o.Log.Warn("audit violation", "tick", v.Tick, "kind", v.Kind, "detail", v.Detail)
		o.ArmDump("audit: " + v.Kind)
	}))
}

// DumpFlight writes the flight-recorder ring as indented JSON — the
// SIGQUIT handler's path. It fails only when the server was never
// instrumented (no recorder exists then).
func (s *Server) DumpFlight(w io.Writer, reason string) error {
	return s.core.DumpFlight(w, reason)
}

// record atomically publishes one tick's allocation together with the
// snapshot it was computed from, and returns the wire form.
func (s *Server) record(alloc *core.Allocation, snap *hypervisor.Snapshot) *AllocationJSON {
	wire := &AllocationJSON{
		Tick:             alloc.Tick,
		MeasuredWatts:    alloc.MeasuredPower,
		DynamicWatts:     alloc.DynamicPower,
		Method:           alloc.Method,
		PerVM:            make(map[string]float64, len(s.names)),
		Degraded:         alloc.Degraded,
		DegradedReason:   alloc.DegradedReason,
		HoldoverAgeTicks: alloc.HoldoverAgeTicks,
		RejectedSamples:  alloc.RejectedSamples,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastSnap = snap
	s.lastPow = alloc.MeasuredPower
	if alloc.Degraded {
		s.degradedTicks++
		s.lastDegraded = alloc.DegradedReason
	}
	s.rejected += alloc.RejectedSamples
	// Energy integrates power over the real tick interval (watt-seconds =
	// watts × dt), not "+= watts": the old form silently assumed 1 Hz and
	// over-billed faster loops by the cadence ratio.
	dt := s.interval.Seconds()
	for i, name := range s.names {
		w := alloc.PerVM[i]
		if alloc.IdlePerVM != nil {
			w += alloc.IdlePerVM[i]
		}
		wire.PerVM[name] = w
		s.energyWs[name] += w * dt
	}
	s.energySeconds += dt
	s.latest = wire
	s.history = append(s.history, wire)
	if len(s.history) > s.histCap {
		s.history = s.history[len(s.history)-s.histCap:]
	}
	s.ticks++
	s.lastTickAt = s.now()
	s.lastErr = ""
	s.publishLocked(wire)
	return wire
}

// Handler returns the HTTP API:
//
//	GET /api/v1/status     — calibration state, idle power, VM list
//	GET /api/v1/allocation — the most recent allocation
//	GET /api/v1/allocation?since=<tick> — only the VMs changed after <tick> (see AllocationDeltaJSON)
//	GET /api/v1/history?n=K — the last K allocations (default all buffered)
//	GET /api/v1/energy     — cumulative per-VM energy in watt-hours
//	GET /api/v1/interactions — the live pairwise interference matrix
//	GET /healthz           — liveness: 503 when the loop stalls or errors
//
// When the server is instrumented (call Instrument before Handler), the
// mux additionally serves GET /metrics (Prometheus text format),
// GET /metrics.json, GET /api/v1/events?since=<seq> (the bounded tick
// event journal) and GET /debug/flight (a flight-recorder dump; pass
// ?trigger=last for the most recent violation-triggered dump instead of
// the live ring).
func (s *Server) Handler() http.Handler {
	mux := s.core.Mux()
	s.core.Handle(mux, "/api/v1/status", s.handleStatus)
	s.core.Handle(mux, "/api/v1/allocation", s.handleAllocation)
	s.core.Handle(mux, "/api/v1/history", s.handleHistory)
	s.core.Handle(mux, "/api/v1/energy", s.handleEnergy)
	s.core.Handle(mux, "/api/v1/interactions", s.handleInteractions)
	s.core.Handle(mux, "/healthz", s.handleHealthz)
	return mux
}

// HealthJSON is the wire form of /healthz.
type HealthJSON struct {
	// Status is "ok", "degraded" (ticks landing but served from holdover
	// or fallback — still 200), "starting" (no tick yet, within the stall
	// threshold), "stalled" (no tick for more than 3 intervals) or
	// "error" (the last Step failed).
	Status     string `json:"status"`
	Calibrated bool   `json:"calibrated"`
	Ticks      int    `json:"ticks_estimated"`
	// LastTickAgeSeconds is the age of the last successful tick; absent
	// before the first one.
	LastTickAgeSeconds float64 `json:"last_tick_age_seconds,omitempty"`
	Error              string  `json:"error,omitempty"`
	// DegradedReason explains a "degraded" status.
	DegradedReason   string `json:"degraded_reason,omitempty"`
	HoldoverAgeTicks int    `json:"holdover_age_ticks,omitempty"`
}

// handleHealthz reports loop liveness: 200 while ticks are landing on
// schedule, 503 once the loop has gone quiet for more than three
// intervals (the Instrument cadence, default 1 s) or the last Step
// failed — which is how a meter lost beyond the holdover bound surfaces,
// since EstimateTick turns terminal at core.ErrMeterLost. A degraded but
// ticking pipeline (holdover within the staleness bound, fallback split)
// reports "degraded" with 200: the daemon is alive and serving bounded-
// staleness answers, which is exactly what the degradation machinery is
// for.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := s.now()
	s.mu.RLock()
	ticks := s.ticks
	lastTickAt := s.lastTickAt
	lastErr := s.lastErr
	latest := s.latest
	s.mu.RUnlock()
	live := s.core.Health(now, s.createdAt, ticks, lastTickAt, lastErr)
	h := HealthJSON{
		Status:             live.Status,
		Calibrated:         s.est.Trained(),
		Ticks:              ticks,
		LastTickAgeSeconds: live.AgeSeconds,
		Error:              live.Error,
	}
	if h.Status == "" {
		h.Status = "ok"
		if latest != nil && latest.Degraded {
			h.Status = "degraded"
			h.DegradedReason = latest.DegradedReason
			h.HoldoverAgeTicks = latest.HoldoverAgeTicks
		}
	}
	s.core.WriteJSON(w, live.Code, h)
}

// handleInteractions serves the live pairwise interference matrix of the
// most recent tick, computed from the same approximated worths the
// allocation used. The matrix costs O(2^n) worth evaluations, so it is
// computed and encoded at most once per tick (single-flight under
// intMu) and a scrape storm serves the cached bytes. Estimator
// thread-safety: Interactions only reads immutable calibration state and
// the approximator's RWMutex-guarded tables, never the per-tick scratch
// EstimateTick owns, so it is safe to run concurrently with Step —
// pinned by TestInteractionsConcurrentWithStep under -race.
func (s *Server) handleInteractions(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	snap := s.lastSnap
	power := s.lastPow
	s.mu.RUnlock()
	if snap == nil {
		s.core.WriteError(w, http.StatusNotFound, "no tick yet")
		return
	}
	s.intMu.Lock()
	if s.intTick == snap.Tick && s.intBody.OK() {
		body := s.intBody
		s.intMu.Unlock()
		s.core.WriteCached(w, body)
		return
	}
	idx, err := s.est.Interactions(*snap, power)
	if err != nil {
		s.intMu.Unlock()
		s.core.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := InteractionsJSON{
		Tick:  snap.Tick,
		VMs:   append([]string(nil), s.names...),
		Watts: idx,
	}
	body := serve.Encode(out)
	if !body.OK() {
		s.intMu.Unlock()
		s.core.WriteJSON(w, http.StatusOK, out)
		return
	}
	s.intTick, s.intBody = snap.Tick, body
	s.intMu.Unlock()
	s.core.WriteCached(w, body)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	if d := s.served.Load(); d != nil && d.status.OK() {
		s.core.WriteCached(w, d.status)
		return
	}
	s.mu.RLock()
	st := s.statusLocked()
	s.mu.RUnlock()
	s.core.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleAllocation(w http.ResponseWriter, r *http.Request) {
	d := s.served.Load()
	if r.URL.RawQuery != "" {
		if raw := r.URL.Query().Get("since"); raw != "" {
			var deltas *serve.Deltas
			if d != nil {
				deltas = d.deltas
			}
			s.core.ServeDelta(w, raw, deltas, "no allocation yet")
			return
		}
	}
	if d != nil && d.allocation.OK() {
		s.core.WriteCached(w, d.allocation)
		return
	}
	s.mu.RLock()
	latest := s.latest
	s.mu.RUnlock()
	if latest == nil {
		s.core.WriteError(w, http.StatusNotFound, "no allocation yet")
		return
	}
	s.core.WriteJSON(w, http.StatusOK, latest)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			s.core.WriteError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	s.mu.RLock()
	hist := s.history
	if n > 0 && n < len(hist) {
		hist = hist[len(hist)-n:]
	}
	out := make([]*AllocationJSON, len(hist))
	copy(out, hist)
	s.mu.RUnlock()
	s.core.WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleEnergy(w http.ResponseWriter, _ *http.Request) {
	if d := s.served.Load(); d != nil && d.energy.OK() {
		s.core.WriteCached(w, d.energy)
		return
	}
	s.mu.RLock()
	out := s.energyLocked()
	s.mu.RUnlock()
	s.core.WriteJSON(w, http.StatusOK, out)
}
