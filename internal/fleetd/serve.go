package fleetd

import "vmpower/internal/serve"

// The high-traffic serving path: every Step publishes an immutable,
// pre-encoded snapshot of the read-mostly endpoints behind one atomic
// pointer swap, so handlers write cached bytes — zero encodes and zero
// marshal allocations per request. On top of the snapshot sits
// /api/v1/allocation?since=<tick>: a delta read carrying only the hosts,
// VMs and tenants that changed after the client's tick, so a thousand
// scrapers cost O(changed), not O(fleet). Bodies, writers and delta
// reads are internal/serve's, shared with powerd.

// servedSnapshot is one tick's pre-encoded HTTP surface, immutable after
// publication apart from the delta bodies its cache fills in on first
// use. A body that is not OK could not encode this tick (or, for
// scenario, no scenario is configured) and the handler falls back to the
// per-request path.
type servedSnapshot struct {
	status     serve.Body
	allocation serve.Body
	energy     serve.Body
	scenario   serve.Body
	deltas     *serve.Deltas
}

// TickDeltaJSON is the wire form of GET /api/v1/allocation?since=T: the
// scalar header of the latest tick plus only the per-VM / per-tenant /
// per-host entries that changed after tick T. A client holding the full
// allocation of tick T reconstructs the full allocation of Tick exactly
// (pinned by TestFleetDeltaComposes) by overwriting the scalars,
// upserting PerVM/PerTenant, deleting Removed*, replacing Hosts entries
// by host id (dropping RemovedHosts), and replacing Unaccounted, Events
// and Migrations wholesale; it then passes Tick as the next ?since=.
// Full marks a resync — the requested tick predates the retained window
// (or a daemon restart) — and carries the complete roster.
type TickDeltaJSON struct {
	Since              int                `json:"since"`
	Tick               int                `json:"tick"`
	Full               bool               `json:"full,omitempty"`
	MeasuredWatts      float64            `json:"measured_watts"`
	DynamicWatts       float64            `json:"dynamic_watts"`
	Degraded           bool               `json:"degraded,omitempty"`
	DegradedHosts      int                `json:"degraded_hosts,omitempty"`
	QuarantinedHosts   int                `json:"quarantined_hosts,omitempty"`
	DrainingHosts      int                `json:"draining_hosts,omitempty"`
	DrainedHosts       int                `json:"drained_hosts,omitempty"`
	IdleUnmeteredHosts int                `json:"idle_unmetered_hosts,omitempty"`
	PerVM              map[string]float64 `json:"per_vm_watts"`
	RemovedVMs         []string           `json:"removed_vms,omitempty"`
	PerTenant          map[string]float64 `json:"per_tenant_watts"`
	RemovedTenants     []string           `json:"removed_tenants,omitempty"`
	Hosts              []HostJSON         `json:"hosts"`
	RemovedHosts       []int              `json:"removed_hosts,omitempty"`
	Unaccounted        []string           `json:"unaccounted,omitempty"`
	Events             []EventJSON        `json:"events,omitempty"`
	Migrations         []MigrationJSON    `json:"migrations,omitempty"`
}

// statusLocked builds the status wire form from tick-published state
// only — no fleet accessors, so it is safe on handler goroutines while
// a scenario mutates the roster. Callers hold s.mu (any mode).
func (s *Server) statusLocked() StatusJSON {
	st := StatusJSON{
		Hosts:         s.hosts,
		EmptyHosts:    s.emptyHosts,
		VMs:           s.vms,
		Tenants:       s.tenants,
		Ticks:         s.ticks,
		DegradedTicks: s.degradedTicks,
		Quarantines:   s.quarantines,
		Readmits:      s.readmits,
	}
	if s.latest != nil {
		st.Degraded = s.latest.Degraded
		st.HostStates = s.latest.Hosts
	}
	return st
}

// energyLocked builds the energy wire form. Callers hold s.mu (any
// mode).
func (s *Server) energyLocked() EnergyJSON {
	energy := s.energy
	if energy.PerTenantWh == nil {
		energy.PerTenantWh = map[string]float64{}
	}
	return energy
}

// hostEqual reports whether two host wire entries are identical.
func hostEqual(a, b *HostJSON) bool {
	if a.Host != b.Host || a.State != b.State || a.Reason != b.Reason ||
		a.MeterLost != b.MeterLost || a.QuarantinedTicks != b.QuarantinedTicks ||
		a.HoldoverAgeTicks != b.HoldoverAgeTicks || a.RejectedSamples != b.RejectedSamples ||
		a.MeasuredWatts != b.MeasuredWatts || a.DynamicWatts != b.DynamicWatts ||
		a.Tier != b.Tier || len(a.VMs) != len(b.VMs) {
		return false
	}
	for i := range a.VMs {
		if a.VMs[i] != b.VMs[i] {
			return false
		}
	}
	return true
}

// publishLocked logs the tick's per-VM, per-tenant and per-host
// changes, pre-encodes the tick's read-mostly endpoints and swaps the
// served snapshot. Called from Step with s.mu held, after the tick's
// state (latest, energy, roster counts, scenario) has been assigned; the
// previous snapshot stays valid for requests already holding its
// pointer.
func (s *Server) publishLocked(wire *TickJSON) {
	s.vmLog.Publish(wire.Tick, wire.PerVM)
	s.tenantLog.Publish(wire.Tick, wire.PerTenant)
	s.hostLog.Publish(wire.Tick, hostRows(wire))
	snap := &servedSnapshot{
		allocation: serve.Encode(wire),
		status:     serve.Encode(s.statusLocked()),
		energy:     serve.Encode(s.energyLocked()),
		deltas:     serve.NewDeltas(wire.Tick, func(since int) any { return s.delta(wire, since) }),
	}
	if s.scenario != nil {
		snap.scenario = serve.Encode(s.scenario)
	}
	s.served.Store(snap)
}

// hostRows keys wire's host rows by host id.
func hostRows(wire *TickJSON) map[int]*HostJSON {
	rows := make(map[int]*HostJSON, len(wire.Hosts))
	for i := range wire.Hosts {
		rows[wire.Hosts[i].Host] = &wire.Hosts[i]
	}
	return rows
}

// delta composes the answer to ?since= against wire, one published tick:
// its scalars, the per-VM and per-tenant entries and host rows that
// changed after since (host rows in wire order), and what left the
// roster.
func (s *Server) delta(wire *TickJSON, since int) *TickDeltaJSON {
	out := &TickDeltaJSON{
		Since:              since,
		Tick:               wire.Tick,
		MeasuredWatts:      wire.MeasuredWatts,
		DynamicWatts:       wire.DynamicWatts,
		Degraded:           wire.Degraded,
		DegradedHosts:      wire.DegradedHosts,
		QuarantinedHosts:   wire.QuarantinedHosts,
		DrainingHosts:      wire.DrainingHosts,
		DrainedHosts:       wire.DrainedHosts,
		IdleUnmeteredHosts: wire.IdleUnmeteredHosts,
		Hosts:              []HostJSON{},
		Unaccounted:        wire.Unaccounted,
		Events:             wire.Events,
		Migrations:         wire.Migrations,
	}
	// The three logs are published together, so they agree on Full.
	out.PerVM, out.RemovedVMs, out.Full = s.vmLog.Delta(since, wire.Tick, wire.PerVM)
	out.PerTenant, out.RemovedTenants, _ = s.tenantLog.Delta(since, wire.Tick, wire.PerTenant)
	changed, removed, _ := s.hostLog.Delta(since, wire.Tick, hostRows(wire))
	for _, h := range wire.Hosts {
		if _, ok := changed[h.Host]; ok {
			out.Hosts = append(out.Hosts, h)
		}
	}
	out.RemovedHosts = removed
	return out
}
