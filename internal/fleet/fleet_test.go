package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/faults"
	"vmpower/internal/machine"
)

func quickConfig(hosts int) Config {
	return Config{
		Hosts:            hosts,
		Seed:             1,
		MeterNoise:       0, // noiseless (the meter.SimOptions convention)
		CalibrationTicks: 60,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(quickConfig(1), nil); err == nil {
		t.Fatal("want no-requests error")
	}
	if _, err := New(quickConfig(1), []VMRequest{{Name: ""}}); err == nil {
		t.Fatal("want empty-name error")
	}
	dup := []VMRequest{{Name: "a", Type: 0}, {Name: "a", Type: 0}}
	if _, err := New(quickConfig(1), dup); err == nil {
		t.Fatal("want duplicate-name error")
	}
	if _, err := New(quickConfig(1), []VMRequest{{Name: "a", Type: 9}}); err == nil {
		t.Fatal("want unknown-type error")
	}
}

func TestPlacementFirstFitDecreasing(t *testing.T) {
	// 2 hosts × 32 logical cores. Requests: 5×xlarge (8 vCPU) = 40
	// vCPUs plus smalls. FFD puts four xlarge on host 0 (32), the fifth
	// on host 1, smalls fill host 1.
	reqs := []VMRequest{
		{Name: "x1", Tenant: "t", Type: 3}, {Name: "x2", Tenant: "t", Type: 3},
		{Name: "x3", Tenant: "t", Type: 3}, {Name: "x4", Tenant: "t", Type: 3},
		{Name: "x5", Tenant: "t", Type: 3},
		{Name: "s1", Tenant: "t", Type: 0}, {Name: "s2", Tenant: "t", Type: 0},
	}
	f, err := New(quickConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	place := f.Placement()
	if f.Hosts() != 2 {
		t.Fatalf("Hosts = %d", f.Hosts())
	}
	host0 := 0
	for _, name := range []string{"x1", "x2", "x3", "x4"} {
		if place[name] == place["x5"] {
			host0++
		}
	}
	if host0 != 0 {
		t.Fatalf("FFD should isolate x5: placement %v", place)
	}
	if place["s1"] != place["x5"] || place["s2"] != place["x5"] {
		t.Fatalf("smalls should backfill host 1: %v", place)
	}
}

// TestCalibrateStartsEveryVMOnWideHost pins Calibrate on a host of more
// VMs than a coalition mask holds: 40 small VMs on one workload seed form
// one group, well within the exact budget, and every one of them must be
// running and billed a nonzero share on a healthy tick.
func TestCalibrateStartsEveryVMOnWideHost(t *testing.T) {
	reqs := make([]VMRequest, 40)
	for i := range reqs {
		reqs[i] = VMRequest{Name: fmt.Sprintf("vm%02d", i), Tenant: "t", Type: 0, Workload: "gcc", WorkloadSeed: 1}
	}
	cfg := quickConfig(1)
	cfg.Profile = machine.DenseProfile()
	cfg.CalibrationTicks = 10
	f, err := New(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	tick, err := f.Step()
	if err != nil {
		t.Fatal(err)
	}
	if h := tick.Hosts[0]; h.State != HostHealthy || h.Tier != core.TierExact {
		t.Fatalf("host state %s tier %q (%s), want healthy exact", h.State, h.Tier, h.Reason)
	}
	for _, r := range reqs {
		if running, err := f.VMRunning(r.Name); err != nil || !running {
			t.Fatalf("VM %s running = %v (%v) after Calibrate", r.Name, running, err)
		}
		if w, ok := tick.PerVM[r.Name]; !ok || w == 0 {
			t.Fatalf("VM %s billed %g W (accounted %v)", r.Name, w, ok)
		}
	}
}

func TestPlacementOvercommit(t *testing.T) {
	// 1 host, 5 xlarge = 40 vCPUs > 32.
	reqs := make([]VMRequest, 5)
	for i := range reqs {
		reqs[i] = VMRequest{Name: string(rune('a' + i)), Tenant: "t", Type: 3}
	}
	if _, err := New(quickConfig(1), reqs); !errors.Is(err, machine.ErrOvercommit) {
		t.Fatalf("want ErrOvercommit, got %v", err)
	}
}

func TestFleetEndToEnd(t *testing.T) {
	// 4 xlarge (32 vCPUs) fill host 0; the smalls and db spill to host 1,
	// so the rollup genuinely spans two independent games.
	reqs := []VMRequest{
		{Name: "web1", Tenant: "alice", Type: 0, Workload: "gcc", WorkloadSeed: 1},
		{Name: "web2", Tenant: "alice", Type: 0, Workload: "gcc", WorkloadSeed: 2},
		{Name: "db", Tenant: "bob", Type: 2, Workload: "omnetpp", WorkloadSeed: 3},
		{Name: "batch1", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 4},
		{Name: "batch2", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 5},
		{Name: "batch3", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 6},
		{Name: "batch4", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 7},
	}
	f, err := New(quickConfig(2), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hosts() != 2 {
		t.Fatalf("Hosts = %d, want 2", f.Hosts())
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	const ticks = 5
	var lastTick *Tick
	if err := f.Run(ticks, func(tk *Tick) bool {
		lastTick = tk
		// Efficiency rolls up: per-VM shares sum to the dynamic total.
		var sum float64
		for _, w := range tk.PerVM {
			sum += w
		}
		if math.Abs(sum-tk.DynamicTotal) > 1e-6 {
			t.Fatalf("Σ shares %g vs dynamic total %g", sum, tk.DynamicTotal)
		}
		// Tenant rollup is consistent.
		var tenantSum float64
		for _, w := range tk.PerTenant {
			tenantSum += w
		}
		if math.Abs(tenantSum-sum) > 1e-9 {
			t.Fatal("tenant rollup inconsistent")
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if lastTick == nil {
		t.Fatal("no ticks delivered")
	}
	// Every VM drew positive power (all run CPU-heavy benchmarks).
	for name, w := range lastTick.PerVM {
		if w <= 0 {
			t.Fatalf("%s drew %g W", name, w)
		}
	}
	// Measured totals include both hosts' idle power.
	if lastTick.MeasuredTotal < 2*138 {
		t.Fatalf("MeasuredTotal = %g, want > 276", lastTick.MeasuredTotal)
	}
	// Energy rollup: positive for both tenants, bob (12 vCPUs) > alice (2).
	energy := f.EnergyWhByTenant()
	if energy["alice"] <= 0 || energy["bob"] <= 0 {
		t.Fatalf("energy = %v", energy)
	}
	if energy["bob"] <= energy["alice"] {
		t.Fatalf("bob should out-consume alice: %v", energy)
	}
}

// TestFleetTickInterval pins the energy integration to the configured
// tick interval: the same deterministic trace stepped at 250 ms must
// integrate exactly a quarter of the 1 s energy (0.25 is a power of two,
// so the per-tick scaling is exact and the quarters match bit for bit),
// and ElapsedSeconds must report real time, not the tick count.
func TestFleetTickInterval(t *testing.T) {
	reqs := []VMRequest{
		{Name: "web", Tenant: "alice", Type: 0, Workload: "gcc", WorkloadSeed: 1},
		{Name: "db", Tenant: "bob", Type: 2, Workload: "omnetpp", WorkloadSeed: 2},
	}
	run := func(interval time.Duration) *Fleet {
		cfg := quickConfig(1)
		cfg.TickInterval = interval
		f, err := New(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Calibrate(); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(8, nil); err != nil {
			t.Fatal(err)
		}
		return f
	}
	oneHz := run(0) // default 1 s
	fast := run(250 * time.Millisecond)

	if got := oneHz.ElapsedSeconds(); got != 8 {
		t.Fatalf("1 Hz elapsed = %g s, want 8", got)
	}
	if got := fast.ElapsedSeconds(); got != 2 {
		t.Fatalf("250 ms elapsed = %g s, want 2", got)
	}
	whSlow, whFast := oneHz.EnergyWhByTenant(), fast.EnergyWhByTenant()
	for _, tenant := range []string{"alice", "bob"} {
		if whSlow[tenant] <= 0 {
			t.Fatalf("%s drew no energy at 1 Hz", tenant)
		}
		if whFast[tenant] != whSlow[tenant]/4 {
			t.Fatalf("%s at 250 ms = %g Wh, want exactly %g/4", tenant, whFast[tenant], whSlow[tenant])
		}
	}

	cfg := quickConfig(1)
	cfg.TickInterval = -time.Second
	if _, err := New(cfg, reqs); err == nil {
		t.Fatal("want negative-interval error")
	}
}

func TestFleetDeterminism(t *testing.T) {
	reqs := []VMRequest{
		{Name: "a", Tenant: "t", Type: 0, Workload: "wrf", WorkloadSeed: 1},
		{Name: "b", Tenant: "t", Type: 1, Workload: "sjeng", WorkloadSeed: 2},
	}
	run := func() map[string]float64 {
		f, err := New(quickConfig(1), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Calibrate(); err != nil {
			t.Fatal(err)
		}
		var last *Tick
		if err := f.Run(3, func(tk *Tick) bool { last = tk; return true }); err != nil {
			t.Fatal(err)
		}
		return last.PerVM
	}
	r1, r2 := run(), run()
	for name := range r1 {
		if r1[name] != r2[name] {
			t.Fatalf("non-deterministic: %s %g vs %g", name, r1[name], r2[name])
		}
	}
}

func TestEmptyHostsAllowed(t *testing.T) {
	// More hosts than needed: extra hosts are simply unused.
	reqs := []VMRequest{{Name: "only", Tenant: "t", Type: 0, Workload: "gcc"}}
	f, err := New(quickConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hosts() != 1 {
		t.Fatalf("non-empty hosts = %d, want 1", f.Hosts())
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyHostAccounting pins the MeasuredTotal contract: empty hosts
// draw idle power but are never metered, so the fleet reports them as
// IdleUnmeteredHosts instead of silently folding a fictitious reading
// into the total.
func TestEmptyHostAccounting(t *testing.T) {
	reqs := []VMRequest{{Name: "only", Tenant: "t", Type: 0, Workload: "gcc"}}
	f, err := New(quickConfig(4), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hosts() != 1 || f.EmptyHosts() != 3 {
		t.Fatalf("Hosts=%d EmptyHosts=%d, want 1 and 3", f.Hosts(), f.EmptyHosts())
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	tick, err := f.Step()
	if err != nil {
		t.Fatal(err)
	}
	if tick.IdleUnmeteredHosts != 3 {
		t.Fatalf("IdleUnmeteredHosts = %d, want 3", tick.IdleUnmeteredHosts)
	}
	if len(tick.Hosts) != 1 {
		t.Fatalf("per-host statuses = %d, want 1", len(tick.Hosts))
	}
	// One metered host: the total is one machine's draw, not four.
	if tick.MeasuredTotal < 100 || tick.MeasuredTotal > 2*138 {
		t.Fatalf("MeasuredTotal = %g, want a single host's reading", tick.MeasuredTotal)
	}
}

// TestMeterNoiseConvention pins the SimOptions sentinel alignment: 0 is a
// genuinely noiseless meter (readings differ from true power only by the
// 0.1 W display quantization) and negative is a configuration error, not
// a silent disable.
func TestMeterNoiseConvention(t *testing.T) {
	reqs := []VMRequest{{Name: "a", Tenant: "t", Type: 0, Workload: "gcc", WorkloadSeed: 1}}
	cfg := quickConfig(1)
	cfg.MeterNoise = -0.5
	if _, err := New(cfg, reqs); err == nil {
		t.Fatal("negative MeterNoise must be rejected")
	}
	cfg.MeterNoise = 0
	f, err := New(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tick, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		truth, err := f.hosts[0].TruePower()
		if err != nil {
			t.Fatal(err)
		}
		// Quantization moves a reading at most half a display step.
		if gap := math.Abs(tick.MeasuredTotal - truth); gap > 0.05+1e-9 {
			t.Fatalf("tick %d: noiseless meter off by %g W", i, gap)
		}
	}
}

// faultedFleet builds a 2-host fleet — four xlarge VMs (tenant "bob")
// fill host 0, one small VM (tenant "alice") lands on host 1 — with a
// scripted fault injector on host 0.
func faultedFleet(t *testing.T, cfg Config, opts faults.Options) (*Fleet, *faults.Meter) {
	t.Helper()
	reqs := []VMRequest{
		{Name: "x1", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 1},
		{Name: "x2", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 2},
		{Name: "x3", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 3},
		{Name: "x4", Tenant: "bob", Type: 3, Workload: "namd", WorkloadSeed: 4},
		{Name: "s1", Tenant: "alice", Type: 0, Workload: "gcc", WorkloadSeed: 5},
	}
	f, err := New(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	place := f.Placement()
	if place["x1"] != 0 || place["s1"] != 1 {
		t.Fatalf("unexpected placement %v", place)
	}
	fm, err := f.InjectFaults(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	fm.SetArmed(true)
	return f, fm
}

// TestHostFaultIsolation is the PR's headline regression: a dead meter on
// host 0 must never zero (or drop) host 1's allocations. Host 0 is
// quarantined — its VMs reported unaccounted — and readmitted by a probe
// once the meter returns.
func TestHostFaultIsolation(t *testing.T) {
	cfg := quickConfig(2)
	cfg.MeterRetries = 2
	cfg.HoldoverTicks = 3
	cfg.QuarantineProbeTicks = 2
	f, fm := faultedFleet(t, cfg,
		faults.Options{Episodes: []faults.Episode{
			// Meter dead for injector ticks [0, 8): with no good online
			// sample yet, host 0 turns terminal on the first tick.
			{Start: 0, Len: 8, Kind: faults.Dropout},
		}})

	sawQuarantine, sawReadmit := false, false
	for i := 0; i < 16; i++ {
		tick, err := f.Step()
		if err != nil {
			t.Fatalf("tick %d: fleet step failed: %v", i, err)
		}
		// The healthy host's VM is allocated every single tick.
		if w, ok := tick.PerVM["s1"]; !ok || w <= 0 {
			t.Fatalf("tick %d: healthy host zeroed: s1 = %g (present %v)", i, w, ok)
		}
		if tick.Hosts[1].State != HostHealthy {
			t.Fatalf("tick %d: host 1 state %v", i, tick.Hosts[1].State)
		}
		if tick.Hosts[0].State == HostQuarantined {
			sawQuarantine = true
			if !tick.Hosts[0].MeterLost {
				t.Fatalf("tick %d: quarantine not marked meter-lost: %+v", i, tick.Hosts[0])
			}
			if len(tick.Unaccounted) != 4 {
				t.Fatalf("tick %d: unaccounted = %v, want host 0's four VMs", i, tick.Unaccounted)
			}
			if _, ok := tick.PerVM["x1"]; ok {
				t.Fatalf("tick %d: quarantined VM x1 still allocated", i)
			}
		}
		if tick.Readmits > 0 {
			sawReadmit = true
			if tick.Hosts[0].State == HostQuarantined {
				t.Fatalf("tick %d: readmitted but still quarantined", i)
			}
		}
		fm.NextTick()
	}
	if !sawQuarantine {
		t.Fatal("host 0 was never quarantined")
	}
	if !sawReadmit {
		t.Fatal("host 0 was never readmitted after the meter returned")
	}
	q, r := f.Transitions()
	if q == 0 || r == 0 {
		t.Fatalf("transitions = %d/%d, want both nonzero", q, r)
	}
}

// TestDegradedEnergySeparation pins the billing satellite: energy
// integrated while a host serves held-over samples is tracked separately
// per tenant, so a bill can exclude or annotate it.
func TestDegradedEnergySeparation(t *testing.T) {
	cfg := quickConfig(2)
	cfg.MeterRetries = 2
	cfg.HoldoverTicks = 10
	f, fm := faultedFleet(t, cfg,
		faults.Options{Episodes: []faults.Episode{
			// A short outage well inside the holdover bound: host 0
			// degrades but keeps contributing.
			{Start: 2, Len: 3, Kind: faults.Dropout},
		}})

	sawDegraded := false
	for i := 0; i < 8; i++ {
		tick, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if tick.Hosts[0].State == HostDegraded {
			sawDegraded = true
			if !tick.Degraded || tick.DegradedHosts != 1 {
				t.Fatalf("tick %d: degradation not rolled up: %+v", i, tick)
			}
			if tick.Hosts[0].Reason == "" || tick.Hosts[0].HoldoverAgeTicks == 0 {
				t.Fatalf("tick %d: degraded host missing reason/age: %+v", i, tick.Hosts[0])
			}
			// Degraded hosts still contribute allocations.
			if _, ok := tick.PerVM["x1"]; !ok {
				t.Fatalf("tick %d: degraded host dropped from rollup", i)
			}
		}
		fm.NextTick()
	}
	if !sawDegraded {
		t.Fatal("the outage produced no degraded host ticks")
	}
	deg := f.DegradedEnergyWhByTenant()
	if deg["bob"] <= 0 {
		t.Fatalf("bob's degraded energy = %g, want > 0", deg["bob"])
	}
	if deg["alice"] != 0 {
		t.Fatalf("alice's degraded energy = %g, want 0 (her host never degraded)", deg["alice"])
	}
	total := f.EnergyWhByTenant()
	if deg["bob"] >= total["bob"] {
		t.Fatalf("degraded energy %g should be a strict slice of total %g", deg["bob"], total["bob"])
	}
}

// TestStepParallelismDeterminism pins the rollup determinism contract:
// the tick stream — allocations, totals, states, unaccounted lists — is
// bit-for-bit identical at any worker count, faults included.
func TestStepParallelismDeterminism(t *testing.T) {
	run := func(par int) []*Tick {
		cfg := quickConfig(2)
		cfg.Parallelism = par
		cfg.MeterRetries = 2
		cfg.HoldoverTicks = 3
		cfg.QuarantineProbeTicks = 2
		f, fm := faultedFleet(t, cfg,
			faults.Options{
				Seed:        42,
				DropoutProb: 0.3,
				Episodes:    []faults.Episode{{Start: 3, Len: 6, Kind: faults.Dropout}},
			})
		out := make([]*Tick, 0, 12)
		for i := 0; i < 12; i++ {
			tick, err := f.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tick)
			fm.NextTick()
		}
		return out
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("tick streams diverge across parallelism:\nserial:   %+v\nparallel: %+v",
			serial[len(serial)-1], parallel[len(parallel)-1])
	}
}

// poolFleet builds a 4-host fleet of two VM classes: ten xlarge VMs fill
// hosts 0 and 1 and half of host 2, and twelve medium VMs fill the rest
// of host 2 and spill onto host 3, so host 2 calibrates three class
// combinations and the others one each.
func poolFleet(t *testing.T, par int) *Fleet {
	t.Helper()
	var reqs []VMRequest
	for i := 0; i < 10; i++ {
		reqs = append(reqs, VMRequest{Name: fmt.Sprintf("x%02d", i), Tenant: "bob", Type: 3,
			Workload: "namd", WorkloadSeed: int64(i)})
	}
	for i := 0; i < 12; i++ {
		reqs = append(reqs, VMRequest{Name: fmt.Sprintf("m%02d", i), Tenant: "alice", Type: 1,
			Workload: "gcc", WorkloadSeed: int64(100 + i)})
	}
	cfg := quickConfig(4)
	cfg.Parallelism = par
	f, err := New(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	place := f.Placement()
	if f.Hosts() != 4 || place["x09"] != 2 || place["m00"] != 2 || place["m11"] != 3 {
		t.Fatalf("unexpected placement over %d hosts: %v", f.Hosts(), place)
	}
	return f
}

// TestCalibrateParallelismDeterminism pins calibration on the worker
// pool: at any worker count every host fits the same model, byte for
// byte as saved, and the fleet then ticks the same stream. Host 2, the
// one of two classes, calibrates behind a disarmed fault injector.
func TestCalibrateParallelismDeterminism(t *testing.T) {
	run := func(par int) ([][]byte, []*Tick) {
		f := poolFleet(t, par)
		if _, err := f.InjectFaults(2, faults.Options{Seed: 3, DropoutProb: 0.5}); err != nil {
			t.Fatal(err)
		}
		if err := f.Calibrate(); err != nil {
			t.Fatal(err)
		}
		models := make([][]byte, f.Hosts())
		for i, est := range f.estimators {
			var buf bytes.Buffer
			if err := est.SaveModel(&buf); err != nil {
				t.Fatal(err)
			}
			models[i] = buf.Bytes()
		}
		ticks := make([]*Tick, 0, 6)
		if err := f.Run(6, func(tk *Tick) bool { ticks = append(ticks, tk); return true }); err != nil {
			t.Fatal(err)
		}
		return models, ticks
	}
	serialModels, serialTicks := run(1)
	parModels, parTicks := run(4)
	for i := range serialModels {
		if !bytes.Equal(serialModels[i], parModels[i]) {
			t.Fatalf("host %d: the model saved after a parallel calibration differs from the serial one", i)
		}
	}
	if !reflect.DeepEqual(serialTicks, parTicks) {
		t.Fatalf("tick streams diverge across calibration parallelism:\nserial:   %+v\nparallel: %+v",
			serialTicks[len(serialTicks)-1], parTicks[len(parTicks)-1])
	}
}

// TestCalibrateErrorNamesLowestHost pins Calibrate's error on the worker
// pool: with the meters of hosts 1 and 3 dead, the error names host 1 at
// any worker count, whichever host fails first. A dropout episode from
// the injector's tick 0 kills a meter for all of calibration, which
// never advances the episode clock (a DropoutProb of 1 is refused).
func TestCalibrateErrorNamesLowestHost(t *testing.T) {
	dead := faults.Options{Episodes: []faults.Episode{{Start: 0, Len: 1, Kind: faults.Dropout}}}
	for _, par := range []int{1, 4} {
		f := poolFleet(t, par)
		for _, h := range []int{1, 3} {
			fm, err := f.InjectFaults(h, dead)
			if err != nil {
				t.Fatal(err)
			}
			fm.SetArmed(true)
		}
		err := f.Calibrate()
		if err == nil || !strings.HasPrefix(err.Error(), "fleet: host 1: ") {
			t.Fatalf("parallelism %d: Calibrate error %v, want one naming host 1", par, err)
		}
	}
}
