package powerd

import "vmpower/internal/serve"

// The high-traffic serving path: every tick publishes an immutable,
// pre-encoded snapshot of the read-mostly endpoints behind one atomic
// pointer swap. Handlers write the cached bytes — zero encodes and zero
// marshal allocations per request — so a scrape storm costs the tick
// loop nothing beyond the one encode it already pays per tick. Bodies,
// writers and delta reads are internal/serve's, shared with fleetd.

// servedSnapshot is one tick's pre-encoded HTTP surface, immutable after
// publication apart from the delta bodies its cache fills in on first
// use. A body that is not OK could not encode this tick (NaN watts and
// the like); the handler then falls back to the per-request path, which
// surfaces the error.
type servedSnapshot struct {
	status     serve.Body
	allocation serve.Body
	energy     serve.Body
	deltas     *serve.Deltas
}

// AllocationDeltaJSON is the wire form of GET /api/v1/allocation?since=T:
// the scalar header of the latest tick plus only the per-VM entries that
// changed after tick T. A client holding the full allocation of tick T
// overwrites the scalars and upserts PerVM to reconstruct the full
// allocation of Tick exactly (pinned by TestAllocationDeltaComposes);
// it then passes Tick as the next ?since=. Full marks a resync — the
// requested tick predates the retained window (or a daemon restart), so
// PerVM carries every VM.
type AllocationDeltaJSON struct {
	Since            int                `json:"since"`
	Tick             int                `json:"tick"`
	Full             bool               `json:"full,omitempty"`
	MeasuredWatts    float64            `json:"measured_watts"`
	DynamicWatts     float64            `json:"dynamic_watts"`
	Method           string             `json:"method"`
	Degraded         bool               `json:"degraded,omitempty"`
	DegradedReason   string             `json:"degraded_reason,omitempty"`
	HoldoverAgeTicks int                `json:"holdover_age_ticks,omitempty"`
	RejectedSamples  int                `json:"rejected_samples,omitempty"`
	PerVM            map[string]float64 `json:"per_vm_watts"`
}

// statusLocked builds the status wire form from published tick state.
// Callers hold s.mu (any mode).
func (s *Server) statusLocked() StatusJSON {
	return StatusJSON{
		Calibrated:         s.est.Trained(),
		IdleWatts:          s.est.IdlePower(),
		VMs:                append([]string(nil), s.names...),
		Ticks:              s.ticks,
		Degraded:           s.latest != nil && s.latest.Degraded,
		DegradedTicks:      s.degradedTicks,
		RejectedSamples:    s.rejected,
		LastDegradedReason: s.lastDegraded,
	}
}

// energyLocked builds the energy wire form. Callers hold s.mu (any mode).
func (s *Server) energyLocked() EnergyJSON {
	out := EnergyJSON{
		Seconds: s.energySeconds,
		PerVMWh: make(map[string]float64, len(s.energyWs)),
	}
	for name, ws := range s.energyWs {
		wh := ws / 3600
		out.PerVMWh[name] = wh
		out.TotalWh += wh
	}
	return out
}

// publishLocked logs the tick's per-VM changes, pre-encodes the tick's
// read-mostly endpoints and swaps the served snapshot. Called from record
// with s.mu held; the previous snapshot stays valid for requests already
// holding its pointer.
func (s *Server) publishLocked(wire *AllocationJSON) {
	s.vmLog.Publish(wire.Tick, wire.PerVM)
	s.served.Store(&servedSnapshot{
		allocation: serve.Encode(wire),
		status:     serve.Encode(s.statusLocked()),
		energy:     serve.Encode(s.energyLocked()),
		deltas:     serve.NewDeltas(wire.Tick, func(since int) any { return s.delta(wire, since) }),
	})
}

// delta composes the answer to ?since= against wire, one published tick:
// its scalars plus the VMs whose watts changed after since.
func (s *Server) delta(wire *AllocationJSON, since int) *AllocationDeltaJSON {
	out := &AllocationDeltaJSON{
		Since:            since,
		Tick:             wire.Tick,
		MeasuredWatts:    wire.MeasuredWatts,
		DynamicWatts:     wire.DynamicWatts,
		Method:           wire.Method,
		Degraded:         wire.Degraded,
		DegradedReason:   wire.DegradedReason,
		HoldoverAgeTicks: wire.HoldoverAgeTicks,
		RejectedSamples:  wire.RejectedSamples,
	}
	// The roster is fixed at New, so no VM is ever removed.
	out.PerVM, _, out.Full = s.vmLog.Delta(since, wire.Tick, wire.PerVM)
	return out
}
