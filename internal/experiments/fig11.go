package experiments

import (
	"vmpower/internal/baseline"
	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/stats"
	"vmpower/internal/trace"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func init() {
	register(Descriptor{ID: "fig11", Title: "Fig. 11 — aggregated power: Shapley vs power model", Run: runFig11})
	register(Descriptor{ID: "fig12", Title: "Fig. 12 — per-VM allocations under three policies", Run: runFig12})
}

// fig11Pipeline is the shared Sec. VII-C setup: the 5-VM paper host with
// trained VHC approximator and per-type power models, running a SPEC mix.
type fig11Pipeline struct {
	host      *hypervisor.Host
	estimator *core.Estimator
	model     *baseline.PowerModel
	benches   []string
}

func newFig11Pipeline(cfg Config) (*fig11Pipeline, error) {
	host, err := paperHost()
	if err != nil {
		return nil, err
	}
	m, err := paperMeter(host, cfg.Seed)
	if err != nil {
		return nil, err
	}
	est, err := core.New(host, m, core.Config{
		OfflineTicksPerCombo: cfg.scale(400),
		Seed:                 cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := est.CollectOffline(); err != nil {
		return nil, err
	}
	model, err := baseline.Train(host, baseline.TrainOptions{Ticks: cfg.scale(240), Seed: cfg.Seed + 17})
	if err != nil {
		return nil, err
	}
	p := &fig11Pipeline{
		host:      host,
		estimator: est,
		model:     model,
		benches:   []string{"gcc", "sjeng", "omnetpp", "wrf", "namd"},
	}
	for i, bench := range p.benches {
		gen, err := workload.ByName(bench, cfg.Seed+int64(900+i))
		if err != nil {
			return nil, err
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			return nil, err
		}
	}
	host.SetCoalition(vm.GrandCoalition(host.Set().Len()))
	return p, nil
}

// runFig11 reproduces Fig. 11: over a SPEC mix on the 5-VM host, the sum
// of power-model estimates overshoots the measured (idle-deducted) power
// badly (the paper reports 56.43% average relative error), while the
// Shapley allocation sums exactly to the measurement (Efficiency).
func runFig11(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "fig11",
		Title:      "Fig. 11 — aggregated power: Shapley vs power model",
		PaperClaim: "power model violates macro-level accuracy with 56.43% average relative error; Shapley estimates always match the measurement",
	}
	p, err := newFig11Pipeline(cfg)
	if err != nil {
		return nil, err
	}
	ticks := cfg.scale(400)
	tbl := trace.NewTable("measured_dynamic", "shapley_sum", "model_sum")
	var (
		modelErrs, shapleyErrs []float64
		innerErr               error
	)
	err = p.estimator.Run(ticks, func(alloc *core.Allocation) bool {
		var shapleySum float64
		for _, phi := range alloc.PerVM {
			shapleySum += phi
		}
		cur := p.host.Collect()
		running, merr := vm.RunningCoalition(cur.Running)
		if merr != nil {
			innerErr = merr
			return false
		}
		modelSum, merr := p.model.AggregateEstimate(p.host.Set(), running, cur.States)
		if merr != nil {
			innerErr = merr
			return false
		}
		modelErrs = append(modelErrs, stats.RelativeError(modelSum, alloc.DynamicPower))
		shapleyErrs = append(shapleyErrs, stats.RelativeError(shapleySum, alloc.DynamicPower))
		innerErr = tbl.AppendRow(alloc.DynamicPower, shapleySum, modelSum)
		return innerErr == nil
	})
	if err == nil {
		err = innerErr
	}
	if err != nil {
		return nil, err
	}
	res.AddTable("fig11", tbl)
	modelSum, err := stats.Summarize(modelErrs)
	if err != nil {
		return nil, err
	}
	shapSum, err := stats.Summarize(shapleyErrs)
	if err != nil {
		return nil, err
	}
	res.Printf("power-model aggregate error: %s", modelSum)
	res.Printf("Shapley aggregate error:     %s", shapSum)
	res.Set("model_mean_rel_err", modelSum.Mean)
	res.Set("shapley_mean_rel_err", shapSum.Mean)
	res.Set("shapley_max_rel_err", shapSum.Max)
	return res, nil
}

// runFig12 reproduces Fig. 12: a single sampled tick's per-VM allocation
// under the three policies. Resource-usage-based allocation preserves the
// power model's proportions but rescales them to the measurement; Shapley
// allocates differently because it prices each VM's marginal interactions.
func runFig12(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "fig12",
		Title:      "Fig. 12 — per-VM allocations under three policies",
		PaperClaim: "usage-based allocation keeps the power model's proportions; Shapley differs (and is fairer per Sec. IV-B)",
	}
	p, err := newFig11Pipeline(cfg)
	if err != nil {
		return nil, err
	}
	// Advance into the run and take one sample tick.
	var alloc *core.Allocation
	if err := p.estimator.Run(cfg.scale(120), func(a *core.Allocation) bool {
		alloc = a
		return true
	}); err != nil {
		return nil, err
	}
	snap := p.host.Collect()
	set := p.host.Set()
	running, err := vm.RunningCoalition(snap.Running)
	if err != nil {
		return nil, err
	}
	modelPer, err := p.model.Estimate(set, running, snap.States)
	if err != nil {
		return nil, err
	}
	usagePer, err := baseline.Proportional(set, running, snap.States, p.model, alloc.DynamicPower)
	if err != nil {
		return nil, err
	}
	res.Printf("measured aggregated power (idle deducted): %.2f W", alloc.DynamicPower)
	res.Printf("%-8s %10s %10s %10s %12s", "VM", "shapley", "usage", "model", "workload")
	var shapSum, usageSum, modelSum float64
	for i, v := range set.All() {
		res.Printf("%-8s %10.2f %10.2f %10.2f %12s", v.Name, alloc.PerVM[i], usagePer[i], modelPer[i], p.benches[i])
		res.Set("shapley_"+v.Name, alloc.PerVM[i])
		res.Set("usage_"+v.Name, usagePer[i])
		res.Set("model_"+v.Name, modelPer[i])
		shapSum += alloc.PerVM[i]
		usageSum += usagePer[i]
		modelSum += modelPer[i]
	}
	res.Printf("%-8s %10.2f %10.2f %10.2f", "sum", shapSum, usageSum, modelSum)
	res.Set("measured", alloc.DynamicPower)
	res.Set("shapley_sum", shapSum)
	res.Set("usage_sum", usageSum)
	res.Set("model_sum", modelSum)
	return res, nil
}
