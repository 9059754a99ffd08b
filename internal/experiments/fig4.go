package experiments

import (
	"fmt"

	"vmpower/internal/machine"
	"vmpower/internal/trace"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func init() {
	register(Descriptor{ID: "fig4", Title: "Fig. 4 — independent per-VM power model error (Pentium & Xeon)", Run: runFig4})
}

// runFig4 reproduces Sec. III-C: run the 100% floating-point job on C_VM,
// train the per-VM model p = a·u from its marginal contribution, then
// activate C_VM' as well and measure the second VM's actual marginal
// contribution. The per-VM model overestimates it by 25.22% (Pentium) and
// 46.15% (Xeon) because the sibling hyperthread shares the physical core.
func runFig4(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "fig4",
		Title:      "Fig. 4 — independent per-VM power model error (Pentium & Xeon)",
		PaperClaim: "second identical VM contributes less than the model predicts: 25.22% error on Pentium, 46.15% on Xeon (13 W model vs 7 W measured)",
	}
	for _, prof := range []machine.Profile{machine.PentiumProfile(), machine.XeonProfile()} {
		if err := fig4Profile(res, prof); err != nil {
			return nil, fmt.Errorf("profile %s: %w", prof.Name, err)
		}
	}
	return res, nil
}

func fig4Profile(res *Result, prof machine.Profile) error {
	host, err := twoCVMHost(prof)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := host.Attach(vm.ID(i), workload.FloatPoint()); err != nil {
			return err
		}
	}
	phase := func(mask vm.Coalition) (float64, error) {
		host.SetCoalition(mask)
		host.Advance(1)
		snap := host.Collect()
		return host.DynamicPowerFor(snap.Running, snap.States)
	}

	// Phase timeline as in the figure: idle → C_VM → C_VM + C_VM'.
	idle, err := phase(vm.EmptyCoalition)
	if err != nil {
		return err
	}
	first, err := phase(vm.CoalitionOf(0))
	if err != nil {
		return err
	}
	both, err := phase(vm.CoalitionOf(0, 1))
	if err != nil {
		return err
	}
	marginalFirst := first - idle
	marginalSecond := both - first
	// Per-VM model trained on the first VM's marginal: p = marginalFirst·u.
	// The paper reports the error relative to the model's prediction
	// ("C_VM' should contribute 13 W while the measured value is only
	// 7 W" → (13−7)/13 = 46.15%).
	modelSecond := marginalFirst // at u = 1
	relErr := (modelSecond - marginalSecond) / modelSecond

	// Swap activation order — the paper observes the same phenomenon.
	firstSwap, err := phase(vm.CoalitionOf(1))
	if err != nil {
		return err
	}
	swapMarginal := firstSwap - idle

	tbl := trace.NewTable("machine_dynamic_power")
	for _, p := range []float64{idle, first, both} {
		if err := tbl.AppendRow(p); err != nil {
			return err
		}
	}
	res.AddTable("fig4_"+prof.Name, tbl)

	res.Printf("%s: first VM adds %.2f W, second adds %.2f W; per-VM model predicts %.2f W → %.2f%% error (order swapped: first adds %.2f W)",
		prof.Name, marginalFirst, marginalSecond, modelSecond, relErr*100, swapMarginal)
	res.Set(prof.Name+"_marginal_first", marginalFirst)
	res.Set(prof.Name+"_marginal_second", marginalSecond)
	res.Set(prof.Name+"_model_error", relErr)
	return nil
}
