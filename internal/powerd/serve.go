package powerd

import "vmpower/internal/serve"

// The high-traffic serving path: every tick publishes an immutable,
// pre-encoded snapshot of the read-mostly endpoints behind one atomic
// pointer swap. Handlers write the cached bytes — zero encodes and zero
// marshal allocations per request — so a scrape storm costs the tick
// loop nothing beyond the one encode it already pays per tick. That
// encode appends each wire type field by field with serve.Encoder (the
// write* functions below), in the bytes encoding/json gives the same
// value; encoding/json stays for the per-request paths and is the tests'
// oracle. Bodies, writers and delta reads are internal/serve's, shared
// with fleetd.

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
// Callers hold s.mu (any mode). VMs is the fixed roster itself, which
// nothing modifies after New.
func (s *Server) statusLocked() StatusJSON {
	return StatusJSON{
		Calibrated:         s.est.Trained(),
		IdleWatts:          s.est.IdlePower(),
		VMs:                s.names,
		Ticks:              s.core.Ticks(),
		Degraded:           s.latest != nil && s.latest.Degraded,
		DegradedTicks:      s.degradedTicks,
		RejectedSamples:    s.rejected,
		LastDegradedReason: s.lastDegraded,
	}
}

// energyLocked builds the energy wire form, adding the per-VM watt-hours
// in ascending name order, the order the body lists them, so the total
// does not depend on map iteration. Callers hold s.mu (any mode).
func (s *Server) energyLocked() EnergyJSON {
	out := EnergyJSON{
		Seconds: s.energySeconds,
		PerVMWh: make(map[string]float64, len(s.energyWs)),
	}
	for _, name := range s.keys {
		wh := s.energyWs[name] / 3600
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
	keys := s.vmLog.Publish(wire.Tick, wire.PerVM)
	s.keys = keys
	snap := &servedSnapshot{
		deltas: serve.NewDeltas(wire.Tick,
			func(since int) *AllocationDeltaJSON { return s.delta(wire, since) },
			func(e *serve.Encoder, d *AllocationDeltaJSON) { writeAllocationDelta(e, d, keys) }),
	}
	last := s.served.Load()
	if last == nil {
		last = &servedSnapshot{}
	}
	snap.allocation = serve.Write(last.allocation, func(e *serve.Encoder) { writeAllocation(e, wire, keys) })
	snap.status = serve.Write(last.status, func(e *serve.Encoder) {
		st := s.statusLocked()
		writeStatus(e, &st, s.vmsJSON)
	})
	snap.energy = serve.Write(last.energy, func(e *serve.Encoder) {
		energy := s.energyLocked()
		writeEnergy(e, &energy, keys)
	})
	s.served.Store(snap)
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

// The writers below append one wire value each, field by field in the
// struct's order, skipping an omitempty field exactly when encoding/json
// does. keys lists the per-VM maps' names in ascending order.

func writeAllocation(e *serve.Encoder, a *AllocationJSON, keys []string) {
	e.Open("")
	e.Int("tick", a.Tick)
	e.Float("measured_watts", a.MeasuredWatts)
	e.Float("dynamic_watts", a.DynamicWatts)
	e.String("method", a.Method)
	e.Floats("per_vm_watts", keys, a.PerVM)
	writeDegraded(e, a.Degraded, a.DegradedReason, a.HoldoverAgeTicks, a.RejectedSamples)
	e.Close()
}

func writeAllocationDelta(e *serve.Encoder, d *AllocationDeltaJSON, keys []string) {
	e.Open("")
	e.Int("since", d.Since)
	e.Int("tick", d.Tick)
	if d.Full {
		e.Bool("full", true)
	}
	e.Float("measured_watts", d.MeasuredWatts)
	e.Float("dynamic_watts", d.DynamicWatts)
	e.String("method", d.Method)
	writeDegraded(e, d.Degraded, d.DegradedReason, d.HoldoverAgeTicks, d.RejectedSamples)
	e.Floats("per_vm_watts", keys, d.PerVM)
	e.Close()
}

// writeDegraded writes the degraded-tick fields an allocation and its
// delta share, each omitted when empty.
func writeDegraded(e *serve.Encoder, degraded bool, reason string, holdoverAge, rejected int) {
	if degraded {
		e.Bool("degraded", true)
	}
	if reason != "" {
		e.String("degraded_reason", reason)
	}
	if holdoverAge != 0 {
		e.Int("holdover_age_ticks", holdoverAge)
	}
	if rejected != 0 {
		e.Int("rejected_samples", rejected)
	}
}

// writeStatus writes st with vms, st.VMs as the Encoder wrote it in New:
// the roster is fixed, so its array is encoded once.
func writeStatus(e *serve.Encoder, st *StatusJSON, vms []byte) {
	e.Open("")
	e.Bool("calibrated", st.Calibrated)
	e.Float("idle_watts", st.IdleWatts)
	e.Raw("vms", vms)
	e.Int("ticks_estimated", st.Ticks)
	e.Bool("degraded", st.Degraded)
	e.Int("degraded_ticks", st.DegradedTicks)
	e.Int("rejected_samples", st.RejectedSamples)
	if st.LastDegradedReason != "" {
		e.String("last_degraded_reason", st.LastDegradedReason)
	}
	e.Close()
}

func writeEnergy(e *serve.Encoder, en *EnergyJSON, keys []string) {
	e.Open("")
	e.Float("seconds", en.Seconds)
	e.Floats("per_vm_wh", keys, en.PerVMWh)
	e.Float("total_wh", en.TotalWh)
	e.Close()
}
