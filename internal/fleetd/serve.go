package fleetd

import "vmpower/internal/serve"

// The high-traffic serving path: every Step publishes an immutable,
// pre-encoded snapshot of the read-mostly endpoints behind one atomic
// pointer swap, so handlers write cached bytes — zero encodes and zero
// marshal allocations per request. On top of the snapshot sits
// /api/v1/allocation?since=<tick>: a delta read carrying only the hosts,
// VMs and tenants that changed after the client's tick, so a thousand
// scrapers cost O(changed), not O(fleet). Each tick's bodies are
// appended field by field with serve.Encoder (the write* functions
// below), in the bytes encoding/json gives the same value; encoding/json
// stays for the per-request paths and is the tests' oracle. Bodies,
// writers and delta reads are internal/serve's, shared with powerd.

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
	hosts      []byte // the host rows allocation and status share
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
// served snapshot. Called from record with s.mu held, after the tick's
// state (latest, energy, roster counts, scenario) has been assigned; the
// previous snapshot stays valid for requests already holding its
// pointer.
func (s *Server) publishLocked(wire *TickJSON) {
	vmKeys := s.vmLog.Publish(wire.Tick, wire.PerVM)
	tenantKeys := s.tenantLog.Publish(wire.Tick, wire.PerTenant)
	s.hostLog.Publish(wire.Tick, hostRows(wire))
	snap := &servedSnapshot{
		deltas: serve.NewDeltas(wire.Tick,
			func(since int) *TickDeltaJSON { return s.delta(wire, since) },
			func(e *serve.Encoder, d *TickDeltaJSON) { writeTickDelta(e, d, vmKeys, tenantKeys) }),
	}
	last := s.served.Load()
	if last == nil {
		last = &servedSnapshot{}
	}
	// The status body's host_states are the allocation's hosts: the rows
	// are encoded once and spliced into both.
	snap.hosts = encodeHosts(last.hosts, wire.Hosts)
	snap.allocation = serve.Write(last.allocation, func(e *serve.Encoder) {
		writeTick(e, wire, vmKeys, tenantKeys, snap.hosts)
	})
	snap.status = serve.Write(last.status, func(e *serve.Encoder) {
		st := s.statusLocked()
		writeStatus(e, &st, snap.hosts)
	})
	// The energy maps hold a subset of the fleet's tenants, and
	// s.tenants lists them all in ascending order.
	snap.energy = serve.Write(last.energy, func(e *serve.Encoder) {
		energy := s.energyLocked()
		writeEnergy(e, &energy, s.tenants)
	})
	if s.scenario != nil {
		snap.scenario = serve.Write(last.scenario, func(e *serve.Encoder) { writeScenario(e, s.scenario) })
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

// The writers below append one wire value each, field by field in the
// struct's order, skipping an omitempty field exactly when encoding/json
// does. vmKeys and tenantKeys list the per-VM and per-tenant maps' names
// in ascending order; hosts is the value's host rows as encodeHosts
// wrote them.

// encodeHosts returns rows as an Encoder writes them, for Raw, or nil
// when a row cannot encode; last, the previous tick's rows, sizes the
// buffer.
func encodeHosts(last []byte, rows []HostJSON) []byte {
	return serve.Value(last, func(e *serve.Encoder) { serve.List(e, "", rows, writeHost) })
}

func writeTick(e *serve.Encoder, t *TickJSON, vmKeys, tenantKeys []string, hosts []byte) {
	e.Open("")
	e.Int("tick", t.Tick)
	e.Float("measured_watts", t.MeasuredWatts)
	e.Float("dynamic_watts", t.DynamicWatts)
	e.Floats("per_vm_watts", vmKeys, t.PerVM)
	e.Floats("per_tenant_watts", tenantKeys, t.PerTenant)
	writeHostCounts(e, t.Degraded, t.DegradedHosts, t.QuarantinedHosts, t.DrainingHosts, t.DrainedHosts, t.IdleUnmeteredHosts)
	writeLifecycle(e, t.Unaccounted, t.Events, t.Migrations)
	e.Raw("hosts", hosts)
	e.Close()
}

func writeTickDelta(e *serve.Encoder, d *TickDeltaJSON, vmKeys, tenantKeys []string) {
	e.Open("")
	e.Int("since", d.Since)
	e.Int("tick", d.Tick)
	if d.Full {
		e.Bool("full", true)
	}
	e.Float("measured_watts", d.MeasuredWatts)
	e.Float("dynamic_watts", d.DynamicWatts)
	writeHostCounts(e, d.Degraded, d.DegradedHosts, d.QuarantinedHosts, d.DrainingHosts, d.DrainedHosts, d.IdleUnmeteredHosts)
	e.Floats("per_vm_watts", vmKeys, d.PerVM)
	if len(d.RemovedVMs) > 0 {
		e.Strings("removed_vms", d.RemovedVMs)
	}
	e.Floats("per_tenant_watts", tenantKeys, d.PerTenant)
	if len(d.RemovedTenants) > 0 {
		e.Strings("removed_tenants", d.RemovedTenants)
	}
	serve.List(e, "hosts", d.Hosts, writeHost)
	if len(d.RemovedHosts) > 0 {
		serve.List(e, "removed_hosts", d.RemovedHosts, func(e *serve.Encoder, host *int) { e.Int("", *host) })
	}
	writeLifecycle(e, d.Unaccounted, d.Events, d.Migrations)
	e.Close()
}

// writeHostCounts writes the degraded flag and host-state counts a tick
// and its delta share, each omitted when empty.
func writeHostCounts(e *serve.Encoder, degraded bool, degradedHosts, quarantined, draining, drained, idleUnmetered int) {
	if degraded {
		e.Bool("degraded", true)
	}
	if degradedHosts != 0 {
		e.Int("degraded_hosts", degradedHosts)
	}
	if quarantined != 0 {
		e.Int("quarantined_hosts", quarantined)
	}
	if draining != 0 {
		e.Int("draining_hosts", draining)
	}
	if drained != 0 {
		e.Int("drained_hosts", drained)
	}
	if idleUnmetered != 0 {
		e.Int("idle_unmetered_hosts", idleUnmetered)
	}
}

// writeLifecycle writes the unaccounted VMs, events and migrations a tick
// and its delta share, each omitted when empty.
func writeLifecycle(e *serve.Encoder, unaccounted []string, events []EventJSON, migrations []MigrationJSON) {
	if len(unaccounted) > 0 {
		e.Strings("unaccounted", unaccounted)
	}
	if len(events) > 0 {
		serve.List(e, "events", events, writeEvent)
	}
	if len(migrations) > 0 {
		serve.List(e, "migrations", migrations, writeMigration)
	}
}

func writeHost(e *serve.Encoder, h *HostJSON) {
	e.Open("")
	e.Int("host", h.Host)
	e.String("state", h.State)
	if h.Reason != "" {
		e.String("reason", h.Reason)
	}
	if h.MeterLost {
		e.Bool("meter_lost", true)
	}
	if h.QuarantinedTicks != 0 {
		e.Int("quarantined_ticks", h.QuarantinedTicks)
	}
	if h.HoldoverAgeTicks != 0 {
		e.Int("holdover_age_ticks", h.HoldoverAgeTicks)
	}
	if h.RejectedSamples != 0 {
		e.Int("rejected_samples", h.RejectedSamples)
	}
	e.Float("measured_watts", h.MeasuredWatts)
	e.Float("dynamic_watts", h.DynamicWatts)
	if h.Tier != "" {
		e.String("tier", h.Tier)
	}
	e.Strings("vms", h.VMs)
	e.Close()
}

func writeEvent(e *serve.Encoder, ev *EventJSON) {
	e.Open("")
	e.String("type", ev.Type)
	e.String("subject", ev.Subject)
	if ev.Detail != "" {
		e.String("detail", ev.Detail)
	}
	e.Close()
}

func writeMigration(e *serve.Encoder, m *MigrationJSON) {
	e.Open("")
	e.String("name", m.Name)
	e.Int("from", m.From)
	e.Int("to", m.To)
	e.Int("copy_tick", m.CopyTick)
	e.Int("copy_ticks", m.CopyTicks)
	e.Float("from_watts", m.FromWatts)
	e.Float("to_watts", m.ToWatts)
	e.Bool("from_accounted", m.FromAccounted)
	e.Bool("to_accounted", m.ToAccounted)
	e.Close()
}

func writeStatus(e *serve.Encoder, st *StatusJSON, hosts []byte) {
	e.Open("")
	e.Int("hosts", st.Hosts)
	if st.EmptyHosts != 0 {
		e.Int("empty_hosts", st.EmptyHosts)
	}
	e.Strings("vms", st.VMs)
	e.Strings("tenants", st.Tenants)
	e.Int("ticks_estimated", st.Ticks)
	e.Bool("degraded", st.Degraded)
	e.Int("degraded_ticks", st.DegradedTicks)
	e.Int("quarantines", st.Quarantines)
	e.Int("readmits", st.Readmits)
	e.Raw("host_states", hosts)
	e.Close()
}

// writeEnergy writes en; tenants lists its maps' tenants, and may list
// more, in ascending order.
func writeEnergy(e *serve.Encoder, en *EnergyJSON, tenants []string) {
	e.Open("")
	e.Float("seconds", en.Seconds)
	e.Floats("per_tenant_wh", tenants, en.PerTenantWh)
	if len(en.DegradedPerTenantWh) > 0 {
		e.Floats("degraded_per_tenant_wh", tenants, en.DegradedPerTenantWh)
	}
	e.Float("total_wh", en.TotalWh)
	e.Float("degraded_wh", en.DegradedWh)
	e.Close()
}

func writeScenario(e *serve.Encoder, sc *ScenarioJSON) {
	e.Open("")
	e.Int("events", sc.Events)
	e.Int("applied", sc.Applied)
	e.Int("refused", sc.Refused)
	if sc.NextTick != 0 {
		e.Int("next_tick", sc.NextTick)
	}
	e.Bool("done", sc.Done)
	if len(sc.Groups) > 0 {
		serve.List(e, "groups", sc.Groups, writeGroup)
	}
	e.Int("migrations_active", sc.MigrationsActive)
	e.Int("migrations_completed", sc.MigrationsCompleted)
	e.Int("migrations_aborted", sc.MigrationsAborted)
	e.Close()
}

func writeGroup(e *serve.Encoder, g *GroupJSON) {
	e.Open("")
	e.String("prefix", g.Prefix)
	e.Int("min", g.Min)
	e.Int("max", g.Max)
	e.Int("target", g.Target)
	e.Int("running", g.Running)
	e.Int("members", g.Members)
	e.Close()
}
