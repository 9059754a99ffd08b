package vmpower

// The benchmark harness: one Benchmark per paper table/figure (each runs
// the corresponding experiment end-to-end in Quick mode and reports the
// headline metric via b.ReportMetric), plus micro-benchmarks of the hot
// paths (exact/Monte-Carlo Shapley, the machine power model, the VHC
// estimate, the serial frame codec).
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"testing"

	"vmpower/internal/core"
	"vmpower/internal/experiments"
	"vmpower/internal/fleet"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/meter/serial"
	"vmpower/internal/obs"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// benchExperiment runs a registered experiment per iteration and reports
// the named metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	d, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Seed: 1, Quick: true}
	var res *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = d.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, m := range metrics {
		if v, ok := res.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// ---- one benchmark per paper artifact (DESIGN.md §4) ----

func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", "general_purpose_usa")
}

func BenchmarkFig1(b *testing.B) {
	benchExperiment(b, "fig1", "extra_energy_pct")
}

func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", "mean_rel_err")
}

func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", "xeon16_model_error", "pentium_model_error")
}

func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", "sibling_marginal")
}

func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, "table3", "shapley_first")
}

func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "fig7", "scenario_a_vm1_decline_usage")
}

func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4", "sublinearity")
}

func BenchmarkTable5(b *testing.B) {
	benchExperiment(b, "table5", "mean_cpu_sjeng")
}

func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10", "overall_frac_below_5pct", "overall_max")
}

func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", "model_mean_rel_err", "shapley_mean_rel_err")
}

func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", "measured")
}

func BenchmarkHeadline(b *testing.B) {
	benchExperiment(b, "headline", "frac_below_5pct", "mean_rel_err")
}

func BenchmarkMonteCarloAblation(b *testing.B) {
	benchExperiment(b, "mc", "max_err_128")
}

func BenchmarkCapping(b *testing.B) {
	benchExperiment(b, "capping", "capped_power", "breach_fraction")
}

func BenchmarkAdditivity(b *testing.B) {
	benchExperiment(b, "additivity", "additivity_deviation")
}

func BenchmarkArbitrary(b *testing.B) {
	benchExperiment(b, "arbitrary", "mean_err_k2", "mean_err_k4")
}

func BenchmarkAxioms(b *testing.B) {
	benchExperiment(b, "axioms", "symmetry_gap_max")
}

func BenchmarkFleet(b *testing.B) {
	benchExperiment(b, "fleet", "max_efficiency_gap")
}

func BenchmarkInteraction(b *testing.B) {
	benchExperiment(b, "interaction", "vm1_pair")
}

// BenchmarkInteractionIndex measures the O(2^n·n²) pairwise index alone.
func BenchmarkInteractionIndex(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			worth := func(s vm.Coalition) float64 {
				size := float64(s.Size())
				return 13*size - 0.4*size*size
			}
			table, err := shapley.Tabulate(n, worth)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.InteractionIndex(n, table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- micro-benchmarks of the hot paths ----

// BenchmarkExactShapley measures the 2^n enumeration at the paper's
// practical sizes.
func BenchmarkExactShapley(b *testing.B) {
	for _, n := range []int{5, 10, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			worth := func(s vm.Coalition) float64 {
				size := float64(s.Size())
				return 13*size - 0.4*size*size
			}
			table, err := shapley.Tabulate(n, worth)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := shapley.ExactFromTable(n, table); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloParallel contrasts serial and parallel permutation
// sampling at n = 24 — the estimate is identical at every worker count.
func BenchmarkMonteCarloParallel(b *testing.B) {
	const n = 24
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 13*size - 0.3*size*size
	}
	for _, p := range []int{1, 2, 4, -1} {
		name := fmt.Sprintf("parallel=%d", p)
		if p < 0 {
			name = "parallel=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shapley.MonteCarlo(n, worth, shapley.MCOptions{
					Permutations: 256, Seed: 7, Parallelism: p,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloShapley measures permutation sampling at n = 24
// (beyond the exact method's practical range).
func BenchmarkMonteCarloShapley(b *testing.B) {
	const n = 24
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 13*size - 0.3*size*size
	}
	for _, perms := range []int{64, 256} {
		b.Run(fmt.Sprintf("perms=%d", perms), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shapley.MonteCarlo(n, worth, shapley.MCOptions{Permutations: perms, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMachinePower measures the ground-truth power function on the
// 5-VM evaluation mix.
func BenchmarkMachinePower(b *testing.B) {
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		b.Fatal(err)
	}
	loads := []machine.Load{
		{VCPUs: 1, MemoryGB: 2, DiskGB: 20, State: vm.State{vm.CPU: 0.9}},
		{VCPUs: 1, MemoryGB: 2, DiskGB: 20, State: vm.State{vm.CPU: 0.8}},
		{VCPUs: 2, MemoryGB: 4, DiskGB: 40, State: vm.State{vm.CPU: 0.7}},
		{VCPUs: 4, MemoryGB: 8, DiskGB: 80, State: vm.State{vm.CPU: 0.95}},
		{VCPUs: 8, MemoryGB: 14, DiskGB: 100, State: vm.State{vm.CPU: 0.85}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mach.DynamicPower(loads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVHCEstimate measures one v(S,C) approximation lookup+dot.
func BenchmarkVHCEstimate(b *testing.B) {
	approx, err := vhc.New(4, vhc.Options{Resolution: 0.01})
	if err != nil {
		b.Fatal(err)
	}
	const combo = vhc.ComboMask(0b1111)
	k := int(vm.NumComponents)
	gen := workload.Synthetic{Seed: 5}
	for i := 0; i < 300; i++ {
		features := make([]float64, 4*k)
		var power float64
		for j := 0; j < 4; j++ {
			s := gen.StateAt(i*4 + j)
			copy(features[j*k:], s[:])
			power += 13 * s[vm.CPU]
		}
		if err := approx.AddSample(combo, features, power); err != nil {
			b.Fatal(err)
		}
	}
	if err := approx.Train(); err != nil {
		b.Fatal(err)
	}
	query := make([]float64, 4*k)
	for j := range query {
		query[j] = 0.42
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Estimate(combo, query); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialCodec measures meter frame encode+decode round-trips.
func BenchmarkSerialCodec(b *testing.B) {
	s := meter.Sample{Seq: 123456, Power: 151.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := serial.Encode(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := serial.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineEstimationTick measures one full online estimation tick
// on the calibrated 5-VM system — the paper's 1 Hz real-time budget.
func BenchmarkOnlineEstimationTick(b *testing.B) {
	sys, err := New(Config{
		Machine: Xeon16,
		VMs: []VMSpec{
			{Name: "vm1a", Type: Small}, {Name: "vm1b", Type: Small},
			{Name: "vm2", Type: Medium}, {Name: "vm3", Type: Large},
			{Name: "vm4", Type: XLarge},
		},
		Seed:             1,
		CalibrationTicks: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Calibrate(); err != nil {
		b.Fatal(err)
	}
	suite := []string{"gcc", "sjeng", "omnetpp", "wrf", "namd"}
	for i, name := range sys.VMNames() {
		if err := sys.RunWorkload(name, suite[i], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateTick measures one estimation tick on a calibrated
// host at the practical sizes n = 8 and n = 16, with steady (constant)
// or all-dirty (every VM's state moves every tick) workloads; the names
// of both regimes predate the exact tier, which keeps nothing across
// ticks. allocs/op is the headline metric; the arms keep their
// "plan=true" suffix because cmd/benchgate's headline set and the
// committed trajectory key on it. Those arms run one VM type; the mixed
// arm alternates small and medium VMs like the mask16 benchmark
// workload. Past the exact budget, the spec arm (the mc24 benchmark
// workload's 24 distinct SPEC VMs) is served exactly under the
// correction search's node cap, while the mc arm's synthetic streams run
// the search past its cap and fall through to Monte Carlo. The search
// arm is the correction search's worst case: a calibration whose VMs
// idle 30% of the time stores exact-match keys that cover the online
// synthetic states of 20 distinct VMs, so the search visits up to 2^20
// count vectors per tick.
func BenchmarkEstimateTick(b *testing.B) {
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	run := func(b *testing.B, n int, regime string, audited, mixed bool, collectIdle float64) {
		mach, err := machine.New(machine.XeonProfile(), machine.Pack)
		if err != nil {
			b.Fatal(err)
		}
		vms := make([]vm.VM, n)
		for i := range vms {
			vms[i] = vm.VM{Name: fmt.Sprintf("vm%02d", i), Type: 0}
			if mixed {
				vms[i].Type = vm.TypeID(i % 2)
			}
		}
		set, err := vm.NewSet(vm.PaperCatalog(), vms)
		if err != nil {
			b.Fatal(err)
		}
		host, err := hypervisor.NewHost(mach, set)
		if err != nil {
			b.Fatal(err)
		}
		m, err := meter.Perfect(host.PowerSource())
		if err != nil {
			b.Fatal(err)
		}
		est, err := core.New(host, m, core.Config{
			Seed:                 1,
			OfflineTicksPerCombo: 40,
			IdleMeasureTicks:     3,
			CollectIdleProb:      collectIdle,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := est.CollectOffline(); err != nil {
			b.Fatal(err)
		}
		for i := range vms {
			var g workload.Generator
			switch regime {
			case "steady":
				g = workload.Constant("steady", vm.State{
					vm.CPU:    float64(i%5) / 5,
					vm.Memory: float64(i%3) / 10,
					vm.DiskIO: float64(i%2) / 10,
				})
			case "spec":
				if g, err = workload.ByName(suite[i%len(suite)], int64(i+1)); err != nil {
					b.Fatal(err)
				}
			default:
				g = workload.Synthetic{Seed: int64(i + 1)}
			}
			if err := host.Attach(vm.ID(i), g); err != nil {
				b.Fatal(err)
			}
		}
		host.SetCoalition(vm.GrandCoalition(n))
		// audited mirrors a daemon tick with the full provenance layer on:
		// the invariant auditor runs its in-line checks and the flight
		// recorder captures the tick, neither of which may add allocs/op
		// over the bare pipeline.
		var flight *obs.FlightRecorder
		var scratch obs.FlightRecord
		if audited {
			est.SetAuditor(core.NewAuditor(core.AuditConfig{}, nil))
			flight = obs.NewFlightRecorder(0, n, int(vm.NumComponents))
		}
		record := func(alloc *core.Allocation) {
			if flight == nil {
				return
			}
			scratch.Tick = alloc.Tick
			scratch.MeasuredWatts = alloc.MeasuredPower
			scratch.DynamicWatts = alloc.DynamicPower
			scratch.Tier = alloc.Prov.Tier
			scratch.TierReason = alloc.Prov.TierReason
			scratch.DirtyVMs = alloc.Prov.DirtyVMs
			scratch.Evaluated = alloc.Prov.Evaluated
			scratch.Reused = alloc.Prov.Reused
			scratch.EfficiencyResidualWatts = alloc.Prov.EfficiencyResidualWatts
			scratch.PerVMWatts = append(scratch.PerVMWatts[:0], alloc.PerVM...)
			flight.Record(&scratch)
		}
		host.Advance(1)
		alloc, err := est.EstimateTick() // warm-up: sizes the scratch buffers
		if err != nil {
			b.Fatal(err)
		}
		want := core.TierExact
		if n == vm.MaxPlayers && regime == "alldirty" {
			want = core.TierMonteCarlo
		}
		if alloc.Prov.Tier != want {
			b.Fatalf("n=%d tick served by %s, want %s", n, alloc.Prov.Tier, want)
		}
		record(alloc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			host.Advance(1)
			alloc, err := est.EstimateTick()
			if err != nil {
				b.Fatal(err)
			}
			record(alloc)
		}
	}
	for _, n := range []int{8, 16} {
		for _, regime := range []string{"steady", "alldirty"} {
			b.Run(fmt.Sprintf("n=%d/%s/plan=true", n, regime), func(b *testing.B) {
				run(b, n, regime, false, false, 0)
			})
		}
		// The provenance arm: auditor + flight recorder on the plan path.
		b.Run(fmt.Sprintf("n=%d/steady/plan=true/audited", n), func(b *testing.B) {
			run(b, n, "steady", true, false, 0)
		})
	}
	// The mixed arm: 8 small and 8 medium VMs, every state moving.
	b.Run("n=16/mixed/alldirty/plan=true", func(b *testing.B) {
		run(b, 16, "alldirty", false, true, 0)
	})
	// The search arm: 20 distinct VMs whose online states the
	// exact-match keys cover.
	b.Run("search/n=20/collectidle=0.3", func(b *testing.B) {
		run(b, 20, "alldirty", false, false, 0.3)
	})

	// Past the exact budget: 24 distinct VMs span 2^24 count vectors.
	// On SPEC traces the correction search is pruned at every combo's
	// root and the tick is exact; on synthetic streams it runs past its
	// node cap, so every tick samples the default permutation budget.
	b.Run("exact/n=24/spec", func(b *testing.B) {
		run(b, 24, "spec", false, false, 0)
	})
	b.Run("mc/n=24/alldirty", func(b *testing.B) {
		run(b, 24, "alldirty", false, false, 0)
	})

	// Grouped arms: n VMs in r groups on the dense 256-thread profile —
	// sizes where 2^n coalition masks cannot exist. Members of a group
	// share one workload generator, so their quantized states stay
	// bit-equal and the exact tier searches ∏(c_g+1) count vectors.
	symCounts := func(n, r int) []int {
		// Skewed class sizes: one dominant class plus small satellites,
		// the shape real fleets collapse into (many identical smalls, a
		// few bespoke VMs).
		switch r {
		case 3:
			return []int{n - 4, 2, 2}
		case 6:
			return []int{n - 10, 3, 3, 2, 1, 1}
		default:
			b.Fatalf("no class split for r=%d", r)
			return nil
		}
	}
	runSym := func(b *testing.B, n, r int, steady bool) {
		counts := symCounts(n, r)
		mach, err := machine.New(machine.DenseProfile(), machine.Pack)
		if err != nil {
			b.Fatal(err)
		}
		vms := make([]vm.VM, n)
		for i := range vms {
			vms[i] = vm.VM{Name: fmt.Sprintf("vm%03d", i), Type: 0}
		}
		set, err := vm.NewSet(vm.PaperCatalog(), vms)
		if err != nil {
			b.Fatal(err)
		}
		host, err := hypervisor.NewHost(mach, set)
		if err != nil {
			b.Fatal(err)
		}
		m, err := meter.Perfect(host.PowerSource())
		if err != nil {
			b.Fatal(err)
		}
		est, err := core.New(host, m, core.Config{
			Seed:                 1,
			OfflineTicksPerCombo: 20,
			IdleMeasureTicks:     2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := est.CollectOffline(); err != nil {
			b.Fatal(err)
		}
		// One generator per class, shared by its members (ID-contiguous).
		gens := make([]workload.Generator, r)
		for j := range gens {
			if steady {
				gens[j] = workload.Constant("steady", vm.State{
					vm.CPU:    0.2 + 0.1*float64(j),
					vm.Memory: 0.05 * float64(j+1),
					vm.DiskIO: 0.02 * float64(j),
				})
			} else {
				gens[j] = workload.Synthetic{Seed: int64(j + 1)}
			}
		}
		id := 0
		for j, c := range counts {
			for i := 0; i < c; i++ {
				if err := host.Attach(vm.ID(id), gens[j]); err != nil {
					b.Fatal(err)
				}
				id++
			}
		}
		running := make([]bool, n)
		for i := range running {
			running[i] = true
		}
		if err := host.SetRunning(running); err != nil {
			b.Fatal(err)
		}
		host.Advance(1)
		alloc, err := est.EstimateTick() // warm-up: sizes the scratch buffers
		if err != nil {
			b.Fatal(err)
		}
		if alloc.SymmetryClasses != r {
			b.Fatalf("tick solved over %d groups, want %d", alloc.SymmetryClasses, r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			host.Advance(1)
			if _, err := est.EstimateTick(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{64, 200} {
		for _, r := range []int{3, 6} {
			for _, regime := range []string{"steady", "alldirty"} {
				b.Run(fmt.Sprintf("sym/n=%d/r=%d/%s", n, r, regime), func(b *testing.B) {
					runSym(b, n, r, regime == "steady")
				})
			}
		}
	}
}

// BenchmarkCalibration measures the full offline collection phase for the
// 2-type quickstart deployment.
func BenchmarkCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := New(Config{
			Machine: Xeon16,
			VMs: []VMSpec{
				{Name: "a", Type: Small}, {Name: "b", Type: Medium},
			},
			Seed:             int64(i),
			CalibrationTicks: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Calibrate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAntitheticMC contrasts plain and antithetic sampling cost.
func BenchmarkAntitheticMC(b *testing.B) {
	const n = 16
	worth := func(s vm.Coalition) float64 {
		size := float64(s.Size())
		return 13*size - 0.5*size*size
	}
	for _, anti := range []bool{false, true} {
		name := "plain"
		if anti {
			name = "antithetic"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shapley.MonteCarlo(n, worth, shapley.MCOptions{
					Permutations: 128, Antithetic: anti, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayTick measures offline re-estimation throughput.
func BenchmarkReplayTick(b *testing.B) {
	sys, err := New(Config{
		Machine:          Xeon16,
		VMs:              []VMSpec{{Name: "a", Type: Small}, {Name: "b", Type: Medium}},
		Seed:             1,
		MeterNoise:       -1,
		CalibrationTicks: 60,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Calibrate(); err != nil {
		b.Fatal(err)
	}
	if err := sys.RunWorkload("a", "gcc", 1); err != nil {
		b.Fatal(err)
	}
	if err := sys.RunWorkload("b", "omnetpp", 2); err != nil {
		b.Fatal(err)
	}
	var trace bytes.Buffer
	if err := sys.StartRecording(&trace); err != nil {
		b.Fatal(err)
	}
	if err := sys.Run(64, nil); err != nil {
		b.Fatal(err)
	}
	if err := sys.StopRecording(); err != nil {
		b.Fatal(err)
	}
	raw := trace.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Replay(bytes.NewReader(raw), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(64, "ticks/op")
}

// BenchmarkWorkloadGen measures state generation across the suite.
func BenchmarkWorkloadGen(b *testing.B) {
	gens := workload.SPECSuite(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gens {
			_ = g.StateAt(i)
		}
	}
}

// fleetPoolArms runs a fleet benchmark serially and on one worker per
// CPU (cmd/fleetd's default), so the pool's effect is the gap between
// the two arms.
var fleetPoolArms = []struct {
	name string
	par  int
}{{"par=1", 1}, {"par=all", -1}}

// poolFleet builds the shape of vmbench's fleet32 pool: 32 Xeon hosts of
// 8 large VMs each (4 vCPUs, 32 threads a host), from 8 tenants, on the
// SPEC suite.
func poolFleet(b *testing.B, par int) *fleet.Fleet {
	b.Helper()
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	reqs := make([]fleet.VMRequest, 32*8)
	for i := range reqs {
		reqs[i] = fleet.VMRequest{
			Name: fmt.Sprintf("L%03d", i), Tenant: fmt.Sprintf("t%d", i%8), Type: vm.TypeID(Large),
			Workload: suite[i%len(suite)], WorkloadSeed: int64(i),
		}
	}
	f, err := fleet.New(fleet.Config{Hosts: 32, Seed: 1, MeterNoise: 0.25, Parallelism: par}, reqs)
	if err != nil {
		b.Fatal(err)
	}
	if f.Hosts() != 32 {
		b.Fatalf("%d hosts, want 32", f.Hosts())
	}
	return f
}

// BenchmarkFleetCalibrate times Fleet.Calibrate on poolFleet: every
// host's offline collection and fit, then the workload binding.
func BenchmarkFleetCalibrate(b *testing.B) {
	for _, arm := range fleetPoolArms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := poolFleet(b, arm.par)
				b.StartTimer()
				if err := f.Calibrate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetSetUp times a fleet's set-up on poolFleet: building it,
// Fleet.Calibrate, and the first Step, which builds every host's worth
// plan. It is the layer behind vmbench's setup_s on fleet32.
func BenchmarkFleetSetUp(b *testing.B) {
	for _, arm := range fleetPoolArms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := poolFleet(b, arm.par)
				if err := f.Calibrate(); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetStep times back-to-back Fleet.Steps on a calibrated
// poolFleet, without the deep audit.
func BenchmarkFleetStep(b *testing.B) {
	for _, arm := range fleetPoolArms {
		b.Run(arm.name, func(b *testing.B) {
			f := poolFleet(b, arm.par)
			if err := f.Calibrate(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
