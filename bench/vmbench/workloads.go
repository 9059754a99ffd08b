package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/fleet"
	"vmpower/internal/fleetd"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/powerd"
	"vmpower/internal/scenario"
	"vmpower/internal/vm"
	wl "vmpower/internal/workload"
)

// workloadSpec is one benchmark input: a daemon configuration, its tick
// cadence, and the endpoint mix and think time of the two billing
// pollers. Each workload stresses a different layer; see bench/README.md
// for why each exists.
type workloadSpec struct {
	name     string
	interval time.Duration
	mix      []endpoint
	think    time.Duration
	build    func(seed int64, interval time.Duration, ticks int, traced bool) (daemon, error)
}

var workloads = []workloadSpec{
	{
		name: "mask16", interval: 20 * time.Millisecond,
		mix: []endpoint{epAllocation}, think: 5 * time.Millisecond,
		build: powerdBuilder(machine.XeonProfile(), mask16VMs),
	},
	{
		name: "sym200", interval: 20 * time.Millisecond,
		mix: []endpoint{epAllocation, epSince}, think: 5 * time.Millisecond,
		build: powerdBuilder(machine.DenseProfile(), sym200VMs),
	},
	{
		name: "mc24", interval: 10 * time.Millisecond,
		mix: []endpoint{epAllocation}, think: 5 * time.Millisecond,
		build: powerdBuilder(machine.XeonProfile(), mc24VMs),
	},
	{
		name: "fleet32", interval: 10 * time.Millisecond,
		mix: []endpoint{epAllocation, epSince}, think: 5 * time.Millisecond,
		build: buildFleet32,
	},
	{
		name: "serve4", interval: 5 * time.Millisecond,
		mix:   []endpoint{epAllocation, epSince, epStatus, epEnergy},
		build: powerdBuilder(machine.XeonProfile(), serve4VMs),
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// daemon is the system under test as the tick loop drives it: one of the
// two serving daemons, built, calibrated and published in this process.
type daemon interface {
	handler() http.Handler
	registry() *obs.Registry
	// step runs one daemon tick; it is the call tick latency times.
	step() error
	// check verifies the tick step just produced and folds its shares
	// into the digest. It runs outside the timed call.
	check(dig *digest) error
	// mark runs before each step of a traced run, layers after it.
	mark()
	layers(rec *layerRec) error
	// name is the daemon's name ("powerd", "fleetd").
	name() string
	// ops counts the scenario operations attempted and refused.
	ops() (tried, refused int)
	// newChecker returns a per-scraper verifier of response bodies.
	newChecker() bodyChecker
}

// layerRec carries one recorded tick into layers: the step span's
// parent index and start time in buf, and the per-tick counts layers
// fills in.
type layerRec struct {
	buf    *spanBuf
	parent int
	tick   int
	start  time.Time

	publishUS float64
	deep      bool
	dirty     int
	evaluated int
	reused    int
	events    int
}

// child records a child span of the step laid after the previous one.
func (r *layerRec) child(name string, cursor *time.Time, d time.Duration) {
	end := cursor.Add(d)
	r.buf.add(name, *cursor, end, r.parent, r.tick)
	*cursor = end
}

// quietLogger keeps the daemons' logs off the benchmark's output.
func quietLogger() *obs.Logger { return obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV) }

// specSuite is the SPEC CPU2006 mix cmd/powerd binds to its VMs.
var specSuite = []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}

const (
	small  vm.TypeID = 0
	medium vm.TypeID = 1
	large  vm.TypeID = 2
	xlarge vm.TypeID = 3
)

// vmSpec is one VM of a single-host workload and the generator driving it.
type vmSpec struct {
	name string
	typ  vm.TypeID
	gen  wl.Generator
}

func specVM(i int, typ vm.TypeID, seed int64) (vmSpec, error) {
	gen, err := wl.ByName(specSuite[i%len(specSuite)], seed+int64(i))
	return vmSpec{name: fmt.Sprintf("vm%02d", i), typ: typ, gen: gen}, err
}

// mask16VMs: 16 small/medium VMs on SPEC traces. Nearly every VM changes
// state every tick, so each tick re-tabulates the whole 2^16 game.
func mask16VMs(seed int64) ([]vmSpec, error) {
	out := make([]vmSpec, 16)
	for i := range out {
		typ := small
		if i%2 == 1 {
			typ = medium
		}
		var err error
		if out[i], err = specVM(i, typ, seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mc24VMs: 24 small VMs on SPEC traces, past the exact mask budget and
// too distinct to collapse, so every tick is sampled by Monte Carlo.
func mc24VMs(seed int64) ([]vmSpec, error) {
	out := make([]vmSpec, 24)
	for i := range out {
		var err error
		if out[i], err = specVM(i, small, seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serve4VMs: one VM of each catalog type; ticks take microseconds, so the
// serving path does nearly all the work.
func serve4VMs(seed int64) ([]vmSpec, error) {
	out := make([]vmSpec, 4)
	for i, typ := range []vm.TypeID{small, medium, large, xlarge} {
		var err error
		if out[i], err = specVM(i, typ, seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sym200Sizes are the symmetry classes of sym200: one big steady class
// and five satellites, the shape real hosts collapse into.
var sym200Sizes = []int{190, 3, 3, 2, 1, 1}

// sym200VMs: 200 small VMs in 6 symmetry classes. Members of a class share
// one generator, so their quantized states stay equal. The two
// single-VM classes follow synthetic generators (dirty every tick); the
// rest hold constant states, so the collapsed solver reuses the quarter
// of the type-count vectors that leave both dirty classes empty.
func sym200VMs(seed int64) ([]vmSpec, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []vmSpec
	for j, size := range sym200Sizes {
		var gen wl.Generator
		if j >= len(sym200Sizes)-2 {
			gen = wl.Synthetic{Seed: seed*1000 + int64(j)}
		} else {
			gen = wl.Constant("steady", vm.State{
				vm.CPU:    0.2 + 0.1*float64(j) + 0.05*rng.Float64(),
				vm.Memory: 0.05*float64(j+1) + 0.02*rng.Float64(),
				vm.DiskIO: 0.02*float64(j) + 0.01*rng.Float64(),
			})
		}
		for i := 0; i < size; i++ {
			out = append(out, vmSpec{name: fmt.Sprintf("vm%03d", len(out)), typ: small, gen: gen})
		}
	}
	return out, nil
}

// powerdBuilder returns a builder that assembles a single-host powerd the
// way cmd/powerd does: simulated host and noisy meter, full offline
// calibration, Instrument and EnableAudit(DeepEvery: 60), then the first
// published tick.
func powerdBuilder(prof machine.Profile, vms func(seed int64) ([]vmSpec, error)) func(int64, time.Duration, int, bool) (daemon, error) {
	return func(seed int64, interval time.Duration, _ int, _ bool) (daemon, error) {
		specs, err := vms(seed)
		if err != nil {
			return nil, err
		}
		return buildPowerd(prof, specs, seed, interval)
	}
}

func buildPowerd(prof machine.Profile, specs []vmSpec, seed int64, interval time.Duration) (*powerDaemon, error) {
	mach, err := machine.New(prof, machine.Pack)
	if err != nil {
		return nil, err
	}
	vms := make([]vm.VM, len(specs))
	names := make([]string, len(specs))
	for i, s := range specs {
		vms[i] = vm.VM{Name: s.name, Type: s.typ}
		names[i] = s.name
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		return nil, err
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		return nil, err
	}
	sim, err := meter.NewSim(host.PowerSource(), meter.SimOptions{NoiseStdDev: 0.25, Resolution: 0.1, Seed: seed})
	if err != nil {
		return nil, err
	}
	est, err := core.New(host, sim, core.Config{Seed: seed, Parallelism: runtime.GOMAXPROCS(0)})
	if err != nil {
		return nil, err
	}
	if err := est.CollectOffline(); err != nil {
		return nil, err
	}
	running := make([]bool, len(specs))
	for i, s := range specs {
		if err := host.Attach(vm.ID(i), s.gen); err != nil {
			return nil, err
		}
		running[i] = true
	}
	if err := host.SetRunning(running); err != nil {
		return nil, err
	}
	srv, err := powerd.New(est, names, 600)
	if err != nil {
		return nil, err
	}
	if err := srv.SetInterval(interval); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, quietLogger(), interval)
	srv.EnableAudit(core.AuditConfig{DeepEvery: 60})
	d := &powerDaemon{
		srv:        srv,
		reg:        reg,
		names:      names,
		violations: reg.Counter("vmpower_audit_violations_total", ""),
	}
	for i, st := range stageNames {
		d.stages[i] = reg.Histogram("vmpower_tick_stage_duration_seconds", "", nil, obs.L("stage", st))
	}
	if err := d.step(); err != nil {
		return nil, fmt.Errorf("first tick: %w", err)
	}
	return d, nil
}

// stageNames are powerd's tick stages (its obs.Span marks) and
// stageLayers the per-layer metric each one feeds, in tick order.
var (
	stageNames  = []string{"snapshot", "meter", "worth", "solve", "normalize", "publish"}
	stageLayers = []string{"core.snapshot", "meter.read", "vhc.worth", "shapley.solve", "core.normalize", "powerd.publish"}
)

type powerDaemon struct {
	srv        *powerd.Server
	reg        *obs.Registry
	names      []string
	violations *obs.Counter
	stages     [6]*obs.Histogram
	sums       [6]float64
	last       *core.Allocation
}

func (d *powerDaemon) handler() http.Handler   { return d.srv.Handler() }
func (d *powerDaemon) registry() *obs.Registry { return d.reg }
func (d *powerDaemon) name() string            { return "powerd" }
func (d *powerDaemon) ops() (int, int)         { return 0, 0 }

func (d *powerDaemon) step() error {
	a, err := d.srv.Step()
	d.last = a
	return err
}

func (d *powerDaemon) check(dig *digest) error {
	a := d.last
	dig.addInt(a.Tick)
	for _, p := range a.PerVM {
		dig.addFloat(p)
	}
	if err := checkShares(a.PerVM, a.DynamicPower); err != nil {
		return fmt.Errorf("tick %d: %w", a.Tick, err)
	}
	if v := d.violations.Value(); v != 0 {
		return fmt.Errorf("tick %d: %d audit violations reported", a.Tick, v)
	}
	return nil
}

func (d *powerDaemon) mark() {
	for i, h := range d.stages {
		d.sums[i] = h.Sum()
	}
}

// layers lays the tick's stage times, read as histogram Sum deltas, out
// as consecutive child spans of the step span; the step's self time is
// then what the daemon spent outside its marked stages.
func (d *powerDaemon) layers(rec *layerRec) error {
	cursor := rec.start
	for i, h := range d.stages {
		sum := h.Sum()
		dur := time.Duration((sum - d.sums[i]) * 1e9)
		d.sums[i] = sum
		rec.child(stageLayers[i], &cursor, dur)
		if stageNames[i] == "publish" {
			rec.publishUS = float64(dur) / 1e3
		}
	}
	p := d.last.Prov
	rec.deep = p.DeepChecked
	rec.dirty, rec.evaluated, rec.reused = p.DirtyVMs, p.Evaluated, p.Reused
	return nil
}

func (d *powerDaemon) newChecker() bodyChecker { return &powerChecker{names: d.names} }

// fleet32 layout: 248 large VMs fill 31 Xeon hosts at 8 per host (32
// threads each) and 4 small VMs sit on the 32nd host.
const (
	fleetHosts  = 32
	fleetLarges = 248
	fleetSmalls = 4
	fleetGroup  = "sm"
)

// fleetRequests lists larges large VMs and the fleetSmalls small ones.
func fleetRequests(seed int64, larges int) []fleet.VMRequest {
	var reqs []fleet.VMRequest
	for i := 0; i < larges; i++ {
		reqs = append(reqs, fleet.VMRequest{
			Name: fmt.Sprintf("L%03d", i), Tenant: fmt.Sprintf("t%d", i%8), Type: large,
			Workload: specSuite[i%len(specSuite)], WorkloadSeed: seed + int64(i),
		})
	}
	for i := 0; i < fleetSmalls; i++ {
		reqs = append(reqs, fleet.VMRequest{
			Name: fmt.Sprintf("%s%d", fleetGroup, i), Tenant: "t-auto", Type: small,
			Workload: specSuite[i%len(specSuite)], WorkloadSeed: seed + 1000 + int64(i),
		})
	}
	return reqs
}

// newFleet builds and calibrates the fleet32 pool and its lifecycle
// engine; the twin fleet of a traced run is built by the same call. The
// pool fans its hosts out to one worker per CPU, cmd/fleetd's default.
func newFleet(seed int64, interval time.Duration, ticks int) (*fleet.Fleet, *scenario.Engine, error) {
	f, err := fleet.New(fleet.Config{
		Hosts:        fleetHosts,
		Seed:         seed,
		MeterNoise:   0.25,
		Parallelism:  -1,
		TickInterval: interval,
	}, fleetRequests(seed, fleetLarges))
	if err != nil {
		return nil, nil, err
	}
	if err := f.Calibrate(); err != nil {
		return nil, nil, err
	}
	events, err := lifecycleProgram(f.States(), seed, ticks)
	if err != nil {
		return nil, nil, err
	}
	engine, err := scenario.New(f, events, seed)
	if err != nil {
		return nil, nil, err
	}
	return f, engine, nil
}

// buildFleet32 assembles fleetd the way cmd/fleetd does (Instrument,
// EnableAudit(DeepEvery: 60), SetScenario) and publishes the first tick.
// A traced run also builds a twin fleet from the same seed: its ticks
// are bit-identical, so timing its scenario Apply and fleet Step
// directly splits fleetd's Step into layers.
func buildFleet32(seed int64, interval time.Duration, ticks int, traced bool) (daemon, error) {
	f, engine, err := newFleet(seed, interval, ticks)
	if err != nil {
		return nil, err
	}
	srv, err := fleetd.New(f)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, quietLogger(), interval)
	srv.EnableAudit(core.AuditConfig{DeepEvery: 60})
	srv.SetScenario(engine)
	d := &fleetDaemon{
		srv:          srv,
		reg:          reg,
		engine:       engine,
		conservation: reg.Counter("vmpower_fleet_audit_violations_total", ""),
		violations:   reg.Counter("vmpower_audit_violations_total", ""),
	}
	if err := d.step(); err != nil {
		return nil, fmt.Errorf("first tick: %w", err)
	}
	if traced {
		if d.twin, d.twinEngine, err = newFleet(seed, interval, ticks); err != nil {
			return nil, err
		}
		d.twin.EnableAudit(core.AuditConfig{DeepEvery: 60}, nil)
		d.twinEngine.Apply()
		if _, err := d.twin.Step(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

type fleetDaemon struct {
	srv          *fleetd.Server
	reg          *obs.Registry
	engine       *scenario.Engine
	conservation *obs.Counter
	violations   *obs.Counter
	last         *fleet.Tick
	names        []string
	shares       []float64

	twin       *fleet.Fleet
	twinEngine *scenario.Engine
}

func (d *fleetDaemon) handler() http.Handler   { return d.srv.Handler() }
func (d *fleetDaemon) registry() *obs.Registry { return d.reg }
func (d *fleetDaemon) name() string            { return "fleetd" }
func (d *fleetDaemon) mark()                   {}

func (d *fleetDaemon) ops() (int, int) {
	st := d.engine.Status()
	return st.Applied + st.Refused, st.Refused
}

func (d *fleetDaemon) step() error {
	t, err := d.srv.Step()
	d.last = t
	return err
}

func (d *fleetDaemon) check(dig *digest) error {
	t := d.last
	d.names = d.names[:0]
	for name := range t.PerVM {
		d.names = append(d.names, name)
	}
	sort.Strings(d.names)
	dig.addInt(t.Tick)
	d.shares = d.shares[:0]
	for _, name := range d.names {
		dig.addString(name)
		dig.addFloat(t.PerVM[name])
		d.shares = append(d.shares, t.PerVM[name])
	}
	if err := checkShares(d.shares, t.DynamicTotal); err != nil {
		return fmt.Errorf("tick %d: %w", t.Tick, err)
	}
	if v := d.conservation.Value(); v != 0 {
		return fmt.Errorf("tick %d: fleet.AuditConservation reported %d violations", t.Tick, v)
	}
	if v := d.violations.Value(); v != 0 {
		return fmt.Errorf("tick %d: %d host audit violations reported", t.Tick, v)
	}
	if len(t.Unaccounted) > 0 {
		return fmt.Errorf("tick %d: %d VMs unaccounted", t.Tick, len(t.Unaccounted))
	}
	return nil
}

// layers steps the twin fleet after every tick of a traced run, timing
// its scenario Apply and fleet Step as child spans of fleetd's Step, and
// checks the twin stayed bit-identical.
func (d *fleetDaemon) layers(rec *layerRec) error {
	t0 := time.Now()
	d.twinEngine.Apply()
	t1 := time.Now()
	tt, err := d.twin.Step()
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("twin fleet: %w", err)
	}
	if !sameShares(tt.PerVM, d.last.PerVM) {
		return fmt.Errorf("tick %d: twin fleet diverged from the served fleet", d.last.Tick)
	}
	cursor := rec.start
	rec.child("scenario.apply", &cursor, t1.Sub(t0))
	rec.child("fleet.step", &cursor, t2.Sub(t1))
	rec.events = len(d.last.Events)
	return nil
}

func sameShares(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (d *fleetDaemon) newChecker() bodyChecker { return &fleetChecker{} }
