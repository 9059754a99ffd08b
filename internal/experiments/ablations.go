package experiments

import (
	"fmt"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/shapley"
	"vmpower/internal/stats"
	"vmpower/internal/trace"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func init() {
	register(Descriptor{ID: "mc", Title: "Ablation — Monte-Carlo permutation count vs Shapley error", Run: runMC})
	register(Descriptor{ID: "trainsize", Title: "Ablation — offline training size vs VHC approximation error", Run: runTrainSize})
	register(Descriptor{ID: "resolution", Title: "Ablation — state normalizing resolution vs error", Run: runResolution})
	register(Descriptor{ID: "scheduler", Title: "Ablation — scheduler policy vs the Fig. 4 phenomenon", Run: runScheduler})
	register(Descriptor{ID: "idle", Title: "Ablation — idle-power attribution rules (Sec. VIII)", Run: runIdle})
}

// runMC measures Monte-Carlo convergence: a 12-VM ground-truth game on the
// Xeon machine, exact Shapley as reference, MC at growing permutation
// counts. Error should shrink roughly as 1/sqrt(permutations).
func runMC(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "mc",
		Title:      "Ablation — Monte-Carlo permutation count vs Shapley error",
		PaperClaim: "(extension) sampling makes n > 16 tractable; the paper computes exact 2^n for n <= 16",
	}
	const n = 12
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		return nil, err
	}
	vms := make([]vm.VM, n)
	for i := range vms {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%d", i), Type: 0}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		return nil, err
	}
	states := make([]vm.State, n)
	for i := range states {
		gen := workload.Synthetic{Seed: cfg.Seed + int64(i)}
		states[i] = gen.StateAt(7)
	}
	oracle, err := mach.WorthFunc(set, states)
	if err != nil {
		return nil, err
	}
	var worthErr error
	worth := func(s vm.Coalition) float64 {
		p, oerr := oracle(s)
		if oerr != nil && worthErr == nil {
			worthErr = oerr
		}
		return p
	}
	table, err := shapley.Tabulate(n, worth)
	if err != nil {
		return nil, err
	}
	if worthErr != nil {
		return nil, worthErr
	}
	exact, err := shapley.ExactFromTable(n, table)
	if err != nil {
		return nil, err
	}
	tableWorth := func(s vm.Coalition) float64 { return table[s] }

	tbl := trace.NewTable("permutations", "max_rel_err", "mean_rel_err", "mean_rel_err_antithetic")
	res.Printf("%12s %14s %14s %14s", "permutations", "max rel err", "mean rel err", "mean (antith.)")
	counts := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	if cfg.Quick {
		counts = []int{8, 32, 128}
	}
	errsAgainstExact := func(phi []float64) (maxE, meanE float64) {
		errs := make([]float64, n)
		for i := range errs {
			errs[i] = stats.RelativeError(phi[i], exact[i])
		}
		maxE, _ = stats.Max(errs)
		meanE, _ = stats.Mean(errs)
		return maxE, meanE
	}
	for _, perms := range counts {
		mc, err := shapley.MonteCarlo(n, tableWorth, shapley.MCOptions{Permutations: perms, Seed: cfg.Seed, Parallelism: -1})
		if err != nil {
			return nil, err
		}
		anti, err := shapley.MonteCarlo(n, tableWorth, shapley.MCOptions{Permutations: perms, Antithetic: true, Seed: cfg.Seed, Parallelism: -1})
		if err != nil {
			return nil, err
		}
		maxE, meanE := errsAgainstExact(mc.Phi)
		_, meanAnti := errsAgainstExact(anti.Phi)
		res.Printf("%12d %13.2f%% %13.2f%% %13.2f%%", perms, maxE*100, meanE*100, meanAnti*100)
		res.Set(fmt.Sprintf("max_err_%d", perms), maxE)
		res.Set(fmt.Sprintf("mean_err_anti_%d", perms), meanAnti)
		if err := tbl.AppendRow(float64(perms), maxE, meanE, meanAnti); err != nil {
			return nil, err
		}
	}
	res.AddTable("mc", tbl)
	return res, nil
}

// runTrainSize sweeps the offline sample count per VHC combination and
// reports the heterogeneous-coalition validation error: diminishing
// returns past ~100 samples justify the paper's short collection runs.
func runTrainSize(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "trainsize",
		Title:      "Ablation — offline training size vs VHC approximation error",
		PaperClaim: "(design choice) the paper trains from a short synthetic run per combination",
	}
	sizes := []int{8, 16, 32, 64, 128, 256}
	if cfg.Quick {
		sizes = []int{8, 32, 128}
	}
	valid := cfg.scale(160)
	tbl := trace.NewTable("samples_per_combo", "mean_rel_err", "max_rel_err")
	res.Printf("%18s %14s %14s", "samples/combo", "mean rel err", "max rel err")
	for _, m := range sizes {
		host, err := heterogeneousHost()
		if err != nil {
			return nil, err
		}
		v, err := validateVHC(host, cfg, m, valid)
		if err != nil {
			return nil, err
		}
		sum, err := stats.Summarize(v.pooled)
		if err != nil {
			return nil, err
		}
		res.Printf("%18d %13.2f%% %13.2f%%", m, sum.Mean*100, sum.Max*100)
		res.Set(fmt.Sprintf("mean_err_m%d", m), sum.Mean)
		if err := tbl.AppendRow(float64(m), sum.Mean, sum.Max); err != nil {
			return nil, err
		}
	}
	res.AddTable("trainsize", tbl)
	return res, nil
}

// runResolution sweeps the state normalizing resolution (the paper fixes
// 0.01) and reports the validation error of the heterogeneous coalition.
func runResolution(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "resolution",
		Title:      "Ablation — state normalizing resolution vs error",
		PaperClaim: "(design choice) the paper normalizes state entries at 0.01 resolution",
	}
	valid := cfg.scale(160)
	offline := cfg.scale(240)
	res.Printf("%12s %14s %14s", "resolution", "mean rel err", "max rel err")
	for _, r := range []float64{0.1, 0.01, 0.001} {
		mach, err := machine.New(machine.XeonProfile(), machine.Pack)
		if err != nil {
			return nil, err
		}
		set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
			{Name: "VM1", Type: 0}, {Name: "VM2", Type: 1},
			{Name: "VM3", Type: 2}, {Name: "VM4", Type: 3},
		})
		if err != nil {
			return nil, err
		}
		host, err := hypervisor.NewHost(mach, set, hypervisor.WithResolution(r))
		if err != nil {
			return nil, err
		}
		v, err := validateVHC(host, cfg, offline, valid)
		if err != nil {
			return nil, err
		}
		sum, err := stats.Summarize(v.pooled)
		if err != nil {
			return nil, err
		}
		res.Printf("%12g %13.2f%% %13.2f%%", r, sum.Mean*100, sum.Max*100)
		res.Set(fmt.Sprintf("mean_err_res_%g", r), sum.Mean)
	}
	return res, nil
}

// runScheduler contrasts Pack and Spread vCPU placement on the Fig. 4
// experiment: packing sibling threads produces the paper's 46% per-VM
// model error; spreading removes the HTT interaction (the delivery effect
// remains) — evidence the phenomenon is placement-dependent.
func runScheduler(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "scheduler",
		Title:      "Ablation — scheduler policy vs the Fig. 4 phenomenon",
		PaperClaim: "(analysis) Sec. III-D attributes the error to HTT sibling sharing, i.e. to placement",
	}
	for _, policy := range []machine.SchedulerPolicy{machine.Pack, machine.Spread} {
		mach, err := machine.New(machine.XeonProfile(), policy)
		if err != nil {
			return nil, err
		}
		catalog := vm.Catalog{{ID: 0, Name: "C_VM_type", VCPUs: 1, MemoryGB: 1, DiskGB: 8}}
		set, err := vm.NewSet(catalog, []vm.VM{{Name: "C_VM", Type: 0}, {Name: "C_VM'", Type: 0}})
		if err != nil {
			return nil, err
		}
		host, err := hypervisor.NewHost(mach, set)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			if err := host.Attach(vm.ID(i), workload.FloatPoint()); err != nil {
				return nil, err
			}
		}
		power := func(mask vm.Coalition) (float64, error) {
			host.SetCoalition(mask)
			host.Advance(1)
			snap := host.Collect()
			return host.DynamicPowerFor(snap.Running, snap.States)
		}
		first, err := power(vm.CoalitionOf(0))
		if err != nil {
			return nil, err
		}
		both, err := power(vm.CoalitionOf(0, 1))
		if err != nil {
			return nil, err
		}
		marginal2 := both - first
		relErr := (first - marginal2) / first // error vs the model's prediction, as in Fig. 4
		res.Printf("%-7s: first VM %.2f W, second %.2f W → per-VM model error %.2f%%", policy, first, marginal2, relErr*100)
		res.Set(policy.String()+"_model_error", relErr)
	}
	return res, nil
}

// runIdle contrasts the two idle-attribution rules of Sec. VIII on one
// tick of the Fig. 11 pipeline.
func runIdle(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "idle",
		Title:      "Ablation — idle-power attribution rules (Sec. VIII)",
		PaperClaim: "no commonly accepted rule; candidates are equal split and Φ-proportional split",
	}
	for _, rule := range []core.IdleAttribution{core.IdleEqual, core.IdleProportional} {
		host, err := paperHost()
		if err != nil {
			return nil, err
		}
		m, err := paperMeter(host, cfg.Seed)
		if err != nil {
			return nil, err
		}
		est, err := core.New(host, m, core.Config{
			OfflineTicksPerCombo: cfg.scale(240),
			Seed:                 cfg.Seed,
			IdleAttribution:      rule,
		})
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
		var alloc *core.Allocation
		if err := est.Run(cfg.scale(40), func(a *core.Allocation) bool { alloc = a; return true }); err != nil {
			return nil, err
		}
		res.Printf("rule %q (idle power %.1f W):", rule, est.IdlePower())
		var total float64
		for i, v := range host.Set().All() {
			res.Printf("  %-6s dynamic=%.2f W idle-share=%.2f W total=%.2f W",
				v.Name, alloc.PerVM[i], alloc.IdlePerVM[i], alloc.Total(vm.ID(i)))
			res.Set(rule.String()+"_idle_"+v.Name, alloc.IdlePerVM[i])
			total += alloc.Total(vm.ID(i))
		}
		res.Printf("  total attributed %.2f W vs measured %.2f W", total, alloc.MeasuredPower)
		res.Set(rule.String()+"_total", total)
	}
	return res, nil
}
