package experiments

import (
	"fmt"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/stats"
	"vmpower/internal/trace"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func init() {
	register(Descriptor{ID: "fig10", Title: "Fig. 10 — accuracy of the VHC-based v(S,C) approximation", Run: runFig10})
}

// vhcValidation trains an estimator offline on a host and validates the
// VHC approximation of the full coalition's v(S,C) against the measured
// power under each SPEC benchmark. It returns the per-benchmark error
// summaries and the pooled error sample.
type vhcValidation struct {
	estimator  *core.Estimator
	classes    *vhc.ClassMap // the estimator's identity class map
	perBench   map[string]stats.Summary
	benchOrder []string
	pooled     []float64
}

func validateVHC(host *hypervisor.Host, cfg Config, offlineTicks, validTicks int) (*vhcValidation, error) {
	m, err := paperMeter(host, cfg.Seed)
	if err != nil {
		return nil, err
	}
	est, err := core.New(host, m, core.Config{
		OfflineTicksPerCombo: offlineTicks,
		Seed:                 cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := est.CollectOffline(); err != nil {
		return nil, err
	}

	set := host.Set()
	grand := vm.GrandCoalition(set.Len())
	classes, err := vhc.IdentityClassMap(len(set.Catalog()))
	if err != nil {
		return nil, err
	}
	plan, err := vhc.NewPlan(set, classes, est.Approximator())
	if err != nil {
		return nil, err
	}
	v := &vhcValidation{
		estimator: est,
		classes:   classes,
		perBench:  make(map[string]stats.Summary),
	}
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	for bi, bench := range suite {
		for i := 0; i < set.Len(); i++ {
			gen, err := workload.ByName(bench, cfg.Seed+int64(bi*100+i))
			if err != nil {
				return nil, err
			}
			if err := host.Attach(vm.ID(i), gen); err != nil {
				return nil, err
			}
		}
		host.SetCoalition(grand)
		errs := make([]float64, 0, validTicks)
		for t := 0; t < validTicks; t++ {
			host.Advance(1)
			snap := host.Collect()
			sample, err := m.Sample()
			if err != nil {
				return nil, err
			}
			measuredDyn := sample.Power - est.IdlePower()
			approx, err := plan.Eval(grand, snap.States)
			if err != nil {
				return nil, err
			}
			errs = append(errs, stats.RelativeError(approx, measuredDyn))
		}
		sum, err := stats.Summarize(errs)
		if err != nil {
			return nil, err
		}
		v.perBench[bench] = sum
		v.benchOrder = append(v.benchOrder, bench)
		v.pooled = append(v.pooled, errs...)
	}
	host.SetCoalition(vm.EmptyCoalition)
	return v, nil
}

// runFig10 reproduces Fig. 10(a)/(b)/(c): train the VHC mapping vectors on
// the synthetic workload, then validate the estimated v(S,C) of the
// homogeneous (4×VM1) and heterogeneous (VM1..VM4) coalitions against the
// measured machine power under the seven SPEC benchmarks.
func runFig10(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "fig10",
		Title:      "Fig. 10 — accuracy of the VHC-based v(S,C) approximation",
		PaperClaim: "~90% of estimations under 5% relative error; max 11.71%; per-benchmark averages below 5.33%; w1 = 9.42 (homogeneous), w = [16.98, 17.91, 23.42, 75.21] (heterogeneous)",
	}
	offline := cfg.scale(400)
	valid := cfg.scale(240)

	var allErrs []float64
	for _, c := range []struct {
		name  string
		build func() (*hypervisor.Host, error)
	}{
		{"homogeneous", homogeneousHost},
		{"heterogeneous", heterogeneousHost},
	} {
		host, err := c.build()
		if err != nil {
			return nil, err
		}
		v, err := validateVHC(host, cfg, offline, valid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		combo, err := vhc.ClassComboFor(host.Set(), vm.GrandCoalition(host.Set().Len()), v.classes)
		if err != nil {
			return nil, err
		}
		weights, err := v.estimator.Approximator().CPUWeights(combo)
		if err != nil {
			return nil, err
		}
		res.Printf("%s coalition: CPU mapping weights %v", c.name, roundAll(weights, 2))
		for i, w := range weights {
			res.Set(fmt.Sprintf("%s_w%d", c.name, i+1), w)
		}
		res.Printf("  %-10s %s", "benchmark", "relative error")
		for _, bench := range v.benchOrder {
			s := v.perBench[bench]
			res.Printf("  %-10s mean=%.2f%% max=%.2f%%", bench, s.Mean*100, s.Max*100)
			res.Set(fmt.Sprintf("%s_%s_mean", c.name, bench), s.Mean)
		}
		pooledSum, err := stats.Summarize(v.pooled)
		if err != nil {
			return nil, err
		}
		res.Printf("  pooled: %s", pooledSum)
		res.Set(c.name+"_mean", pooledSum.Mean)
		res.Set(c.name+"_max", pooledSum.Max)
		res.Set(c.name+"_frac_below_5pct", pooledSum.FracBelow5)
		allErrs = append(allErrs, v.pooled...)
	}

	// Fig. 10(c): the pooled error CDF.
	ecdf, err := stats.NewECDF(allErrs)
	if err != nil {
		return nil, err
	}
	cdf := trace.NewTable("rel_error", "cdf")
	for _, pt := range ecdf.Points(64) {
		if err := cdf.AppendRow(pt[0], pt[1]); err != nil {
			return nil, err
		}
	}
	res.AddTable("fig10c_cdf", cdf)
	total, err := stats.Summarize(allErrs)
	if err != nil {
		return nil, err
	}
	res.Printf("overall: %s", total)
	res.Set("overall_frac_below_5pct", total.FracBelow5)
	res.Set("overall_max", total.Max)
	res.Set("overall_mean", total.Mean)
	return res, nil
}

func roundAll(xs []float64, digits int) []float64 {
	out := make([]float64, len(xs))
	pow := 1.0
	for i := 0; i < digits; i++ {
		pow *= 10
	}
	for i, x := range xs {
		out[i] = float64(int64(x*pow+0.5)) / pow
	}
	return out
}
