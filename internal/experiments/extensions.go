package experiments

import (
	"fmt"

	"vmpower/internal/capping"
	"vmpower/internal/cluster"
	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/stats"
	"vmpower/internal/trace"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func init() {
	register(Descriptor{ID: "capping", Title: "Extension — per-VM power caps driven by Shapley shares", Run: runCapping})
	register(Descriptor{ID: "additivity", Title: "Extension — non-local storage accounting via Additivity (Sec. VIII)", Run: runAdditivity})
	register(Descriptor{ID: "arbitrary", Title: "Extension — arbitrary VM types via VHC class clustering (Sec. VIII)", Run: runArbitrary})
}

// runCapping demonstrates the introduction's motivating application:
// "VM power measurement can effectively enable power caps to be enforced
// on a per-VM basis". The controller throttles VM4's CPU ceiling until
// its attributed power obeys a 25 W cap, without touching the other VMs.
func runCapping(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "capping",
		Title:      "Extension — per-VM power caps driven by Shapley shares",
		PaperClaim: "(application from Sec. I) per-VM power capping becomes enforceable once per-VM power is measurable",
	}
	host, err := paperHost()
	if err != nil {
		return nil, err
	}
	m, err := paperMeter(host, cfg.Seed)
	if err != nil {
		return nil, err
	}
	est, err := core.New(host, m, core.Config{OfflineTicksPerCombo: cfg.scale(240), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := est.CollectOffline(); err != nil {
		return nil, err
	}
	for i, bench := range []string{"gcc", "sjeng", "omnetpp", "wrf", "namd"} {
		gen, err := workload.ByName(bench, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			return nil, err
		}
	}
	host.SetCoalition(vm.GrandCoalition(host.Set().Len()))

	// Uncapped baseline power of VM4.
	var uncapped float64
	warm := cfg.scale(40)
	if err := est.Run(warm, func(a *core.Allocation) bool {
		uncapped += a.PerVM[4] / float64(warm)
		return true
	}); err != nil {
		return nil, err
	}

	const capW = 25.0
	ctrl, err := capping.New(host)
	if err != nil {
		return nil, err
	}
	if err := ctrl.SetCap(4, capW); err != nil {
		return nil, err
	}
	// Settle, then measure compliance and the capped mean.
	if _, err := ctrl.Run(est, cfg.scale(40)); err != nil {
		return nil, err
	}
	window := cfg.scale(160)
	var capped, others float64
	tbl := trace.NewTable("vm4_power", "cap")
	breaches := 0
	var loopErr error
	if err := est.Run(window, func(a *core.Allocation) bool {
		capped += a.PerVM[4] / float64(window)
		others += (a.PerVM[0] + a.PerVM[1] + a.PerVM[2] + a.PerVM[3]) / float64(window)
		if a.PerVM[4] > capW {
			breaches++
		}
		if _, err := ctrl.Observe(a); err != nil {
			loopErr = err
			return false
		}
		loopErr = tbl.AppendRow(a.PerVM[4], capW)
		return loopErr == nil
	}); err != nil {
		return nil, err
	}
	if loopErr != nil {
		return nil, loopErr
	}
	res.AddTable("capping", tbl)
	limit, err := host.CPULimit(4)
	if err != nil {
		return nil, err
	}
	res.Printf("VM4 uncapped: %.2f W; cap %.0f W installed", uncapped, capW)
	res.Printf("settled: VM4 mean %.2f W (CPU ceiling %.2f), %d/%d ticks above cap", capped, limit, breaches, window)
	res.Printf("other VMs draw %.2f W combined (unthrottled)", others)
	res.Set("uncapped_power", uncapped)
	res.Set("capped_power", capped)
	res.Set("cap", capW)
	res.Set("breach_fraction", float64(breaches)/float64(window))
	res.Set("cpu_limit", limit)
	return res, nil
}

// runAdditivity reproduces Sec. VIII's non-local resource scenario: VMs
// on the compute server with logic disks on a shared, saturating storage
// array. Each VM's total power is the sum of its Shapley shares in the
// compute game and the storage game — exactly what the Additivity axiom
// licenses — and the experiment verifies the axiom numerically.
func runAdditivity(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "additivity",
		Title:      "Extension — non-local storage accounting via Additivity (Sec. VIII)",
		PaperClaim: "\"we can treat such a VM in two games and compute the power of the two parts separately; ... the aggregated power of these two parts is the VM's total power\"",
	}
	host, err := heterogeneousHost()
	if err != nil {
		return nil, err
	}
	set := host.Set()
	n := set.Len()
	// A SPEC mix on the compute side; VM1 and VM3 also stream to the array.
	benches := []string{"gcc", "omnetpp", "sjeng", "namd"}
	for i, bench := range benches {
		gen, err := workload.ByName(bench, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			return nil, err
		}
	}
	host.SetCoalition(vm.GrandCoalition(n))
	host.Advance(cfg.scale(40))
	snap := host.Collect()
	oracle, err := host.Machine().WorthFunc(set, snap.States)
	if err != nil {
		return nil, err
	}
	var worthErr error
	computeWorth := func(s vm.Coalition) float64 {
		p, oerr := oracle(s)
		if oerr != nil && worthErr == nil {
			worthErr = oerr
		}
		return p
	}

	array := cluster.DefaultArray()
	ios := []float64{0.9, 0, 0.8, 0.7} // VM2 has only a local disk
	att, err := cluster.Account(n, computeWorth, array, ios)
	if err != nil {
		return nil, err
	}
	if worthErr != nil {
		return nil, worthErr
	}
	computePower := computeWorth(vm.GrandCoalition(n))
	arrayPower, err := array.DynamicPower(ios)
	if err != nil {
		return nil, err
	}

	res.Printf("compute machine dynamic power: %.2f W; storage array dynamic power: %.2f W", computePower, arrayPower)
	res.Printf("%-6s %10s %12s %12s %10s", "VM", "io", "compute(W)", "storage(W)", "total(W)")
	var totalSum float64
	for i, v := range set.All() {
		total := att.Total(vm.ID(i))
		totalSum += total
		res.Printf("%-6s %10.2f %12.2f %12.2f %10.2f", v.Name, ios[i], att.Compute[i], att.Storage[i], total)
		res.Set("storage_"+v.Name, att.Storage[i])
		res.Set("total_"+v.Name, total)
	}
	res.Printf("Σ totals %.2f W = compute %.2f + array %.2f (two-game Efficiency)", totalSum, computePower, arrayPower)
	res.Set("total_sum", totalSum)
	res.Set("expected_sum", computePower+arrayPower)

	dev, err := cluster.VerifyAdditivity(n, computeWorth, array, ios, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("additivity check: %w", err)
	}
	res.Printf("additivity axiom verified: max per-VM deviation %.2g W between combined-game and summed Shapley values", dev)
	res.Set("additivity_deviation", dev)
	res.Set("diskless_storage_share", att.Storage[1])
	return res, nil
}

// arbitraryCatalog builds numTypes distinct custom VM shapes — the
// Sec. VIII scenario where "VMs are configured with arbitrary hardware
// resources, leading to a large number of VM types".
func arbitraryCatalog(numTypes int) vm.Catalog {
	c := make(vm.Catalog, numTypes)
	for i := 0; i < numTypes; i++ {
		c[i] = vm.Type{
			ID:       vm.TypeID(i),
			Name:     fmt.Sprintf("custom%d", i),
			VCPUs:    1 + i%4,
			MemoryGB: 2 + 3*(i%5),
			DiskGB:   20 + 25*(i%6),
		}
	}
	return c
}

// runArbitrary evaluates the VHC class-clustering extension: a host with
// 8 VMs of 8 distinct custom types (2^8 combinations would be infeasible
// to measure on real hardware at scale) is compressed to k classes, and
// the fig10-style validation error is reported per k.
func runArbitrary(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "arbitrary",
		Title:      "Extension — arbitrary VM types via VHC class clustering (Sec. VIII)",
		PaperClaim: "\"it might be difficult to apply our VHC-based linear approximation and new approximating approaches will be needed\"",
	}
	const numTypes = 8
	catalog := arbitraryCatalog(numTypes)
	res.Printf("%8s %14s %14s %14s", "classes", "combos swept", "mean rel err", "max rel err")
	ks := []int{2, 3, 4, 8}
	if cfg.Quick {
		ks = []int{2, 4}
	}
	for _, k := range ks {
		classes, err := vhc.ClusterTypes(catalog, k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		meanErr, maxErr, err := arbitraryValidation(cfg, catalog, classes)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		res.Printf("%8d %14d %13.2f%% %13.2f%%", classes.Classes, 1<<classes.Classes-1, meanErr*100, maxErr*100)
		res.Set(fmt.Sprintf("mean_err_k%d", k), meanErr)
		res.Set(fmt.Sprintf("combos_k%d", k), float64(int(1)<<classes.Classes-1))
	}
	res.Printf("clustering trades offline sweep cost (2^k combos) against approximation error")
	return res, nil
}

// arbitraryValidation trains an estimator with the given class map and
// validates the full-coalition v(S,C) against the measured power under a
// SPEC mix (the fig10 protocol on the custom-type host).
func arbitraryValidation(cfg Config, catalog vm.Catalog, classes *vhc.ClassMap) (meanErr, maxErr float64, err error) {
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		return 0, 0, err
	}
	vms := make([]vm.VM, len(catalog))
	for i := range vms {
		vms[i] = vm.VM{Name: catalog[i].Name, Type: vm.TypeID(i)}
	}
	set, err := vm.NewSet(catalog, vms)
	if err != nil {
		return 0, 0, err
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		return 0, 0, err
	}
	m, err := paperMeter(host, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	// Keep enough samples per combination that the widest class combo
	// (classes × k features) stays well-determined even in Quick mode.
	offline := cfg.scale(160)
	if floor := 8 * classes.Classes * int(vm.NumComponents); offline < floor {
		offline = floor
	}
	est, err := core.New(host, m, core.Config{
		OfflineTicksPerCombo: offline,
		Seed:                 cfg.Seed,
		Classes:              classes,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := est.CollectOffline(); err != nil {
		return 0, 0, err
	}
	plan, err := vhc.NewPlan(set, classes, est.Approximator())
	if err != nil {
		return 0, 0, err
	}

	suite := workload.SPECSuite(cfg.Seed)
	for i := 0; i < set.Len(); i++ {
		if err := host.Attach(vm.ID(i), suite[i%len(suite)]); err != nil {
			return 0, 0, err
		}
	}
	grand := vm.GrandCoalition(set.Len())
	host.SetCoalition(grand)
	errs := make([]float64, 0, cfg.scale(200))
	for t := 0; t < cfg.scale(200); t++ {
		host.Advance(1)
		snap := host.Collect()
		sample, err := m.Sample()
		if err != nil {
			return 0, 0, err
		}
		measured := sample.Power - est.IdlePower()
		approx, err := plan.Eval(grand, snap.States)
		if err != nil {
			return 0, 0, err
		}
		errs = append(errs, stats.RelativeError(approx, measured))
	}
	sum, err := stats.Summarize(errs)
	if err != nil {
		return 0, 0, err
	}
	return sum.Mean, sum.Max, nil
}
