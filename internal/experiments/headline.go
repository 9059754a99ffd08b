package experiments

import (
	"vmpower/internal/core"
	"vmpower/internal/shapley"
	"vmpower/internal/stats"
	"vmpower/internal/trace"
	"vmpower/internal/vm"
)

func init() {
	register(Descriptor{ID: "headline", Title: "Headline — non-deterministic vs exact Shapley value", Run: runHeadline})
}

// runHeadline reproduces the abstract's headline claim: the
// non-deterministic Shapley value (VHC-approximated subset worths, the
// measured power as the grand coalition's worth) stays within 5% of the
// exact Shapley value (computed from the ground-truth worth of every
// coalition at the current states — only observable in simulation) for
// ~90% of the per-VM estimates.
func runHeadline(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "headline",
		Title:      "Headline — non-deterministic vs exact Shapley value",
		PaperClaim: "non-deterministic Shapley achieves <5% error vs exact Shapley for 90% of the time",
	}
	p, err := newFig11Pipeline(cfg)
	if err != nil {
		return nil, err
	}
	host, set := p.host, p.host.Set()
	n := set.Len()
	ticks := cfg.scale(400)

	var errs []float64
	var approxSeries, exactSeries [][]float64
	runErr := p.estimator.Run(ticks, func(alloc *core.Allocation) bool {
		snap := host.Collect()
		running, werr := vm.RunningCoalition(snap.Running)
		if werr != nil {
			err = werr
			return false
		}
		oracle, werr := host.Machine().WorthFunc(set, snap.States)
		if werr != nil {
			err = werr
			return false
		}
		var worthErr error
		exact, werr := shapley.Exact(n, func(s vm.Coalition) float64 {
			s &= running
			v, oerr := oracle(s)
			if oerr != nil && worthErr == nil {
				worthErr = oerr
			}
			return v
		})
		if werr != nil {
			err = werr
			return false
		}
		if worthErr != nil {
			err = worthErr
			return false
		}
		for i := 0; i < n; i++ {
			// Skip near-zero exact shares: relative error is undefined
			// noise there (and the paper's VMs are never idle online).
			if exact[i] < 0.5 {
				continue
			}
			errs = append(errs, stats.RelativeError(alloc.PerVM[i], exact[i]))
		}
		approxSeries = append(approxSeries, alloc.PerVM)
		exactSeries = append(exactSeries, exact)
		return true
	})
	if runErr != nil {
		return nil, runErr
	}
	if err != nil {
		return nil, err
	}

	sum, err := stats.Summarize(errs)
	if err != nil {
		return nil, err
	}
	ecdf, err := stats.NewECDF(errs)
	if err != nil {
		return nil, err
	}
	cdf := trace.NewTable("rel_error", "cdf")
	for _, pt := range ecdf.Points(64) {
		if err := cdf.AppendRow(pt[0], pt[1]); err != nil {
			return nil, err
		}
	}
	res.AddTable("headline_cdf", cdf)

	// A representative tick for inspection.
	if len(approxSeries) > 0 {
		mid := len(approxSeries) / 2
		res.Printf("sample tick: per-VM power, non-deterministic vs exact Shapley")
		for i, v := range set.All() {
			res.Printf("  %-6s approx=%.2f W exact=%.2f W", v.Name, approxSeries[mid][i], exactSeries[mid][i])
		}
	}
	res.Printf("per-VM error of non-deterministic vs exact Shapley: %s", sum)
	res.Printf("error < 5%% for %.1f%% of per-VM estimates (paper: 90%%)", sum.FracBelow5*100)
	res.Set("frac_below_5pct", sum.FracBelow5)
	res.Set("mean_rel_err", sum.Mean)
	res.Set("p90_rel_err", sum.P90)
	res.Set("max_rel_err", sum.Max)
	return res, nil
}
