package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"vmpower/internal/fleetd"
	"vmpower/internal/powerd"
)

// shareTol is the Efficiency tolerance every allocation must meet:
// |Σφ − dyn| ≤ shareTol·max(1, |dyn|).
const shareTol = 1e-9

// near reports whether got equals want within shareTol.
func near(got, want float64) bool {
	return math.Abs(got-want) <= shareTol*math.Max(1, math.Abs(want))
}

// checkShares verifies that the per-VM shares are finite and sum to the
// dynamic power (the Efficiency axiom a bill rests on).
func checkShares(shares []float64, dyn float64) error {
	var sum float64
	for i, p := range shares {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("share %d is %g", i, p)
		}
		sum += p
	}
	if !near(sum, dyn) {
		return fmt.Errorf("shares sum to %.17g W, dynamic power is %.17g W", sum, dyn)
	}
	return nil
}

// digest is an FNV-64a hash over every tick's shares in tick order; two
// runs with the same seed must print the same digest.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) addFloat(v float64) { d.addUint(math.Float64bits(v)) }
func (d *digest) addInt(v int)       { d.addUint(uint64(v)) }
func (d *digest) addString(s string) { d.h.Write([]byte(s)) }

func (d *digest) addUint(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// bodyChecker verifies sampled scrape bodies. A scraper owns one and
// keeps in it the last full allocation it checked, the base a sampled
// delta read composes onto.
type bodyChecker interface {
	// check verifies body as returned by ep; since is the ?since= tick
	// of a delta read.
	check(ep endpoint, since int, body []byte) error
	// baseTick is the tick of the held base allocation (-1 when none).
	baseTick() int
}

// powerChecker checks powerd bodies.
type powerChecker struct {
	names []string
	base  *powerd.AllocationJSON
}

func (c *powerChecker) baseTick() int {
	if c.base == nil {
		return -1
	}
	return c.base.Tick
}

func (c *powerChecker) check(ep endpoint, since int, body []byte) error {
	switch ep {
	case epAllocation:
		var a powerd.AllocationJSON
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if err := c.allocation(&a); err != nil {
			return err
		}
		c.base = &a
	case epSince:
		var d powerd.AllocationDeltaJSON
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		if d.Since != since || d.Tick < since {
			return fmt.Errorf("delta since=%d answered since=%d tick=%d", since, d.Since, d.Tick)
		}
		if c.base == nil || c.base.Tick != since {
			return nil
		}
		// Compose: the delta's scalars and changed VMs over the base.
		a := powerd.AllocationJSON{Tick: d.Tick, DynamicWatts: d.DynamicWatts, PerVM: map[string]float64{}}
		for name, w := range c.base.PerVM {
			a.PerVM[name] = w
		}
		for name, w := range d.PerVM {
			a.PerVM[name] = w
		}
		if err := c.allocation(&a); err != nil {
			return fmt.Errorf("base %d + delta: %w", since, err)
		}
	case epStatus:
		var s powerd.StatusJSON
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if !s.Calibrated || len(s.VMs) != len(c.names) || s.Ticks < 1 {
			return fmt.Errorf("status: calibrated=%v vms=%d ticks=%d", s.Calibrated, len(s.VMs), s.Ticks)
		}
	case epEnergy:
		var e powerd.EnergyJSON
		if err := json.Unmarshal(body, &e); err != nil {
			return err
		}
		var sum float64
		for _, wh := range e.PerVMWh {
			sum += wh
		}
		if len(e.PerVMWh) != len(c.names) || e.Seconds <= 0 || !near(sum, e.TotalWh) {
			return fmt.Errorf("energy: %d VMs, %g s, per-VM sum %g Wh, total %g Wh", len(e.PerVMWh), e.Seconds, sum, e.TotalWh)
		}
	}
	return nil
}

func (c *powerChecker) allocation(a *powerd.AllocationJSON) error {
	if len(a.PerVM) != len(c.names) {
		return fmt.Errorf("allocation %d has %d VMs, want %d", a.Tick, len(a.PerVM), len(c.names))
	}
	shares := make([]float64, 0, len(a.PerVM))
	for _, w := range a.PerVM {
		shares = append(shares, w)
	}
	if err := checkShares(shares, a.DynamicWatts); err != nil {
		return fmt.Errorf("allocation %d: %w", a.Tick, err)
	}
	return nil
}

// fleetChecker checks fleetd bodies.
type fleetChecker struct {
	base *fleetd.TickJSON
}

func (c *fleetChecker) baseTick() int {
	if c.base == nil {
		return -1
	}
	return c.base.Tick
}

func (c *fleetChecker) check(ep endpoint, since int, body []byte) error {
	switch ep {
	case epAllocation:
		var t fleetd.TickJSON
		if err := json.Unmarshal(body, &t); err != nil {
			return err
		}
		if err := checkTick(&t); err != nil {
			return err
		}
		c.base = &t
	case epSince:
		var d fleetd.TickDeltaJSON
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		if d.Since != since || d.Tick < since {
			return fmt.Errorf("delta since=%d answered since=%d tick=%d", since, d.Since, d.Tick)
		}
		if c.base == nil || c.base.Tick != since {
			return nil
		}
		t := compose(c.base, &d)
		if err := checkTick(t); err != nil {
			return fmt.Errorf("base %d + delta: %w", since, err)
		}
	default:
		return fmt.Errorf("fleetd body check for %s not implemented", ep)
	}
	return nil
}

// checkTick verifies a fleet allocation: shares and host dynamics each
// sum to the fleet's dynamic power.
func checkTick(t *fleetd.TickJSON) error {
	shares := make([]float64, 0, len(t.PerVM))
	for _, w := range t.PerVM {
		shares = append(shares, w)
	}
	if err := checkShares(shares, t.DynamicWatts); err != nil {
		return fmt.Errorf("allocation %d: %w", t.Tick, err)
	}
	var hosts float64
	for _, h := range t.Hosts {
		hosts += h.DynamicWatts
	}
	if !near(hosts, t.DynamicWatts) {
		return fmt.Errorf("allocation %d: hosts sum to %.17g W, dynamic power is %.17g W", t.Tick, hosts, t.DynamicWatts)
	}
	return nil
}

// compose rebuilds the full allocation a delta read describes, following
// the fleetd.TickDeltaJSON contract: overwrite the scalars, upsert and
// delete per-VM and per-tenant entries, replace host rows by id.
func compose(base *fleetd.TickJSON, d *fleetd.TickDeltaJSON) *fleetd.TickJSON {
	t := &fleetd.TickJSON{
		Tick:          d.Tick,
		MeasuredWatts: d.MeasuredWatts,
		DynamicWatts:  d.DynamicWatts,
		PerVM:         map[string]float64{},
		PerTenant:     map[string]float64{},
	}
	if !d.Full {
		for k, v := range base.PerVM {
			t.PerVM[k] = v
		}
		for k, v := range base.PerTenant {
			t.PerTenant[k] = v
		}
	}
	for k, v := range d.PerVM {
		t.PerVM[k] = v
	}
	for k, v := range d.PerTenant {
		t.PerTenant[k] = v
	}
	for _, k := range d.RemovedVMs {
		delete(t.PerVM, k)
	}
	for _, k := range d.RemovedTenants {
		delete(t.PerTenant, k)
	}
	rows := map[int]fleetd.HostJSON{}
	if !d.Full {
		for _, h := range base.Hosts {
			rows[h.Host] = h
		}
	}
	for _, h := range d.Hosts {
		rows[h.Host] = h
	}
	for _, id := range d.RemovedHosts {
		delete(rows, id)
	}
	for _, h := range rows {
		t.Hosts = append(t.Hosts, h)
	}
	return t
}
