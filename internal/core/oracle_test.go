package core

import (
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/shapley"
)

// legacyEstimate is the pre-plan estimation route, kept as the oracle the
// production tiers are pinned against: buildWorth's worths over the
// uncompiled model (ClassedFeaturesFor + Approximator.Estimate per
// coalition), a full 2^n tabulation and the sharded accumulation at the
// estimator's parallelism, or Monte Carlo past ExactMaxPlayers. The
// sharded engine's decomposition is the mask tier's, so mask-tier shares
// must match it bit for bit; the collapsed tier sums in another order
// and matches it to ≤1e-12.
func legacyEstimate(t *testing.T, e *Estimator, snap hypervisor.Snapshot, measuredTotal float64) *Allocation {
	t.Helper()
	n := e.host.Set().Len()
	dyn := measuredTotal - e.idlePower
	if dyn < 0 {
		dyn = 0
	}
	alloc := &Allocation{
		Tick:          snap.Tick,
		Coalition:     snap.Coalition,
		MeasuredPower: measuredTotal,
		DynamicPower:  dyn,
		PerVM:         make([]float64, n),
		Method:        "exact",
	}
	var members []int
	for _, id := range snap.Coalition.Members() {
		members = append(members, int(id))
	}
	if len(members) == 0 {
		alloc.DynamicPower = 0
		return e.attributeIdle(alloc, members)
	}
	worth, worthErr := e.buildWorth(snap, dyn)
	if n <= e.cfg.ExactMaxPlayers {
		table := make([]float64, 1<<uint(n))
		if err := shapley.TabulateParallelInto(table, n, worth, e.cfg.Parallelism); err != nil {
			t.Fatal(err)
		}
		partials := make([]float64, shapley.ExactScratch(n))
		if err := shapley.ExactFromTableParallelInto(alloc.PerVM, partials, n, table, e.cfg.Parallelism); err != nil {
			t.Fatal(err)
		}
	} else {
		alloc.Method = "montecarlo"
		res, err := shapley.MonteCarlo(n, worth, shapley.MCOptions{
			Permutations: e.cfg.MCPermutations,
			Seed:         e.cfg.Seed ^ int64(snap.Tick),
			Parallelism:  e.cfg.Parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		alloc.PerVM = res.Phi
	}
	if err := worthErr(); err != nil {
		t.Fatalf("legacy worth evaluation: %v", err)
	}
	return e.attributeIdle(alloc, members)
}
