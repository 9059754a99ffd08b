package experiments

import (
	"sort"

	"vmpower/internal/fleet"
	"vmpower/internal/trace"
)

func init() {
	register(Descriptor{ID: "fleet", Title: "Extension — datacenter-scale accounting across a host pool", Run: runFleet})
}

// runFleet scales the pipeline to a pool of machines: ten VMs from three
// tenants are consolidated onto three hosts (first-fit decreasing), each
// host is metered and disaggregated independently, and per-tenant
// datacenter power is the sum of per-host Shapley shares (Additivity
// across independent games). The roll-up must stay exactly efficient:
// tenant power sums to the pool's idle-deducted power every tick.
func runFleet(cfg Config) (*Result, error) {
	res := &Result{
		ID:         "fleet",
		Title:      "Extension — datacenter-scale accounting across a host pool",
		PaperClaim: "(Sec. I context) datacenter-wide per-tenant power from independently accounted machines",
	}
	reqs := []fleet.VMRequest{
		{Name: "web-1", Tenant: "acme", Type: 0, Workload: "gcc", WorkloadSeed: cfg.Seed + 1},
		{Name: "web-2", Tenant: "acme", Type: 0, Workload: "gcc", WorkloadSeed: cfg.Seed + 2},
		{Name: "api", Tenant: "acme", Type: 1, Workload: "omnetpp", WorkloadSeed: cfg.Seed + 3},
		{Name: "train-1", Tenant: "ml-corp", Type: 3, Workload: "namd", WorkloadSeed: cfg.Seed + 4},
		{Name: "train-2", Tenant: "ml-corp", Type: 3, Workload: "namd", WorkloadSeed: cfg.Seed + 5},
		{Name: "train-3", Tenant: "ml-corp", Type: 3, Workload: "namd", WorkloadSeed: cfg.Seed + 6},
		{Name: "etl", Tenant: "ml-corp", Type: 2, Workload: "wrf", WorkloadSeed: cfg.Seed + 7},
		{Name: "ci-1", Tenant: "devshop", Type: 1, Workload: "sjeng", WorkloadSeed: cfg.Seed + 8},
		{Name: "ci-2", Tenant: "devshop", Type: 1, Workload: "gobmk", WorkloadSeed: cfg.Seed + 9},
		{Name: "cache", Tenant: "devshop", Type: 0, Workload: "tonto", WorkloadSeed: cfg.Seed + 10},
	}
	f, err := fleet.New(fleet.Config{
		Hosts:            3,
		Seed:             cfg.Seed,
		MeterNoise:       0.25, // 0 now means noiseless; keep the old default explicitly
		CalibrationTicks: cfg.scale(240),
	}, reqs)
	if err != nil {
		return nil, err
	}
	if err := f.Calibrate(); err != nil {
		return nil, err
	}

	ticks := cfg.scale(120)
	tbl := trace.NewTable("measured_total", "dynamic_total", "acme", "ml-corp", "devshop")
	var last *fleet.Tick
	var maxGap float64
	var innerErr error
	if err := f.Run(ticks, func(tk *fleet.Tick) bool {
		last = tk
		if gap := abs(sumByName(tk.PerVM) - tk.DynamicTotal); gap > maxGap {
			maxGap = gap
		}
		innerErr = tbl.AppendRow(tk.MeasuredTotal, tk.DynamicTotal,
			tk.PerTenant["acme"], tk.PerTenant["ml-corp"], tk.PerTenant["devshop"])
		return innerErr == nil
	}); err != nil {
		return nil, err
	}
	if innerErr != nil {
		return nil, innerErr
	}
	res.AddTable("fleet", tbl)

	res.Printf("%d VMs on %d hosts; final tick: pool draws %.1f W (%.1f W above idle)",
		len(reqs), f.Hosts(), last.MeasuredTotal, last.DynamicTotal)
	tenants := make([]string, 0, len(last.PerTenant))
	for tn := range last.PerTenant {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	energy := f.EnergyWhByTenant()
	res.Printf("%-10s %14s %14s", "tenant", "power (W)", "energy (Wh)")
	for _, tn := range tenants {
		res.Printf("%-10s %14.2f %14.4f", tn, last.PerTenant[tn], energy[tn])
		res.Set("power_"+tn, last.PerTenant[tn])
		res.Set("energy_wh_"+tn, energy[tn])
	}
	res.Printf("max per-tick efficiency gap across the pool: %.3g W", maxGap)
	res.Set("hosts", float64(f.Hosts()))
	res.Set("max_efficiency_gap", maxGap)
	return res, nil
}

// sumByName adds the values of m in ascending name order: float addition
// is not associative, so a sum in map order would let the reported gap
// change from run to run.
func sumByName(m map[string]float64) float64 {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += m[name]
	}
	return sum
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
