package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// legacyWorth is the oracle's game: each coalition's member states summed
// per class by ClassedFeaturesInto (not the plan's gather) and priced by
// Plan.Worth, with the running grand coalition worth dyn, the empty set
// 0 and stopped VMs as dummies. The returned func reports the first
// evaluation failure; the worth is safe for concurrent use.
func legacyWorth(e *Estimator, plan *vhc.Plan, running vm.Coalition, states []vm.State, dyn float64) (shapley.WorthFunc, func() error) {
	set := e.host.Set()
	n := set.Len()
	var mu sync.Mutex
	var worthErr error
	worth := func(s vm.Coalition) float64 {
		s &= running
		switch {
		case s == running:
			return dyn
		case s.IsEmpty():
			return 0
		}
		var flags [vm.MaxPlayers]bool
		for m := uint32(s); m != 0; m &= m - 1 {
			flags[bits.TrailingZeros32(m)] = true
		}
		var feat [vhc.MaxFeatureLen]float64
		combo, _, err := vhc.ClassedFeaturesInto(set, flags[:n], states, e.classes, &feat)
		var v float64
		if err == nil {
			v, err = plan.Worth(combo, &feat)
		}
		if err != nil {
			mu.Lock()
			if worthErr == nil {
				worthErr = err
			}
			mu.Unlock()
		}
		return v
	}
	return worth, func() error {
		mu.Lock()
		defer mu.Unlock()
		return worthErr
	}
}

// legacyEstimate is the pre-plan estimation route, kept as the oracle the
// production tiers are pinned against: legacyWorth's per-coalition worths
// with the textbook 2^n Shapley sum for sets of up to 20 VMs, and Monte
// Carlo with the production seed past that. The exact tier matches it to
// ≤1e-12 of the worth scale; the Monte-Carlo tier, which feeds the same
// sampler the plan's worths, matches it bit for bit.
func legacyEstimate(t *testing.T, e *Estimator, snap hypervisor.Snapshot, measuredTotal float64) *Allocation {
	t.Helper()
	n := e.host.Set().Len()
	dyn := measuredTotal - e.idlePower
	if dyn < 0 {
		dyn = 0
	}
	alloc := &Allocation{
		Tick:          snap.Tick,
		MeasuredPower: measuredTotal,
		DynamicPower:  dyn,
		PerVM:         make([]float64, n),
		Method:        "exact",
	}
	running := runningMask(t, snap)
	var members []int
	for _, id := range running.Members() {
		members = append(members, int(id))
	}
	if len(members) == 0 {
		alloc.DynamicPower = 0
		return e.attributeIdle(alloc, members)
	}
	plan, err := e.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	worth, worthErr := legacyWorth(e, plan, running, snap.States, dyn)
	if n <= 20 {
		phi, err := shapley.Exact(n, worth)
		if err != nil {
			t.Fatal(err)
		}
		alloc.PerVM = phi
	} else {
		alloc.Method = "montecarlo"
		res, err := shapley.MonteCarlo(n, worth, shapley.MCOptions{
			Seed:        e.cfg.Seed ^ int64(snap.Tick),
			Parallelism: e.cfg.Parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		alloc.PerVM, alloc.StdErr = res.Phi, res.StdErr
	}
	if err := worthErr(); err != nil {
		t.Fatalf("legacy worth evaluation: %v", err)
	}
	return e.attributeIdle(alloc, members)
}

// runningMask is the snapshot's running set as a coalition mask, for the
// 2^n oracles.
func runningMask(t testing.TB, snap hypervisor.Snapshot) vm.Coalition {
	t.Helper()
	mask, err := vm.RunningCoalition(snap.Running)
	if err != nil {
		t.Fatal(err)
	}
	return mask
}

// flagsOf returns mask's running flags over n VMs.
func flagsOf(mask vm.Coalition, n int) []bool {
	flags := make([]bool, n)
	for _, id := range mask.Members() {
		flags[id] = true
	}
	return flags
}

// textbookShares is the exact tier's oracle: the textbook 2^n Shapley sum
// over Plan.Eval's worths, with the running grand coalition worth dyn
// and stopped VMs as dummies. It also returns the worth scale,
// max(1, max |v|), that the oracle bound is relative to.
func textbookShares(t testing.TB, plan *vhc.Plan, running vm.Coalition, states []vm.State, dyn float64) ([]float64, float64) {
	t.Helper()
	var evalErr error
	scale := math.Max(1, dyn)
	worth := func(s vm.Coalition) float64 {
		s &= running
		switch {
		case s.IsEmpty():
			return 0
		case s == running:
			return dyn
		}
		v, err := plan.Eval(s, states)
		if err != nil && evalErr == nil {
			evalErr = err
		}
		scale = math.Max(scale, math.Abs(v))
		return v
	}
	phi, err := shapley.Exact(plan.NumVMs(), worth)
	if err != nil {
		t.Fatal(err)
	}
	if evalErr != nil {
		t.Fatalf("textbook worth: %v", evalErr)
	}
	return phi, scale
}

// countTextbook is the wide-host oracle: the textbook Shapley sum
// grouped by count vector. For a member of group g,
//
//	Φ_g = Σ_t C(c_g−1, t_g)·∏_{h≠g} C(c_h, t_h)·p(Σt)·(v(t+e_g) − v(t))
//
// over every vector t with t_g < c_g, where v adds each group's state t_h
// times into its class slot in group order and reads Plan.Worth, the
// empty vector is worth 0 and the full one dyn. It returns one share per
// group and the worth scale. The sum is compensated (Neumaier): at 2^24
// vectors of nearly equal terms a plain running sum drifts by ~1e-10 of
// the share, past the 1e-12 the exact tier is held to.
func countTextbook(t testing.TB, plan *vhc.Plan, groups []group, dyn float64) ([]float64, float64) {
	t.Helper()
	const k = int(vm.NumComponents)
	n, v := 0, 1
	rows := make([][]float64, len(groups)) // C(c_g, t) per group
	for j, g := range groups {
		n += g.count
		v *= g.count + 1
		rows[j] = make([]float64, g.count+1)
		c := 1.0
		for r := 0; r <= g.count; r++ {
			rows[j][r] = c
			c = c * float64(g.count-r) / float64(r+1)
		}
	}
	p, err := shapley.Weights(n)
	if err != nil {
		t.Fatal(err)
	}
	// next advances tv to the next index's count vector: the index's
	// mixed-radix digits, group 0 the fastest.
	tv := make([]int, len(groups))
	next := func() {
		for j, g := range groups {
			if tv[j] < g.count {
				tv[j]++
				return
			}
			tv[j] = 0
		}
	}
	scale := math.Max(1, dyn)
	worths := make([]float64, v)
	for idx := 1; idx < v; idx++ {
		next()
		var combo vhc.ComboMask
		for j, g := range groups {
			if tv[j] > 0 {
				combo |= g.bit
			}
		}
		var feat [vhc.MaxFeatureLen]float64
		for j, g := range groups {
			base := (combo & (g.bit - 1)).Size() * k
			for x := 0; x < tv[j]; x++ {
				for c := 0; c < k; c++ {
					feat[base+c] += g.state[c]
				}
			}
		}
		w, err := plan.Worth(combo, &feat)
		if err != nil {
			t.Fatalf("count-vector worth: %v", err)
		}
		worths[idx] = w
		scale = math.Max(scale, math.Abs(w))
	}
	worths[v-1] = dyn
	phi := make([]float64, len(groups))
	comp := make([]float64, len(groups))
	stride := make([]int, len(groups))
	s := 1
	for j, g := range groups {
		stride[j] = s
		s *= g.count + 1
	}
	next() // wraps tv back to the zero vector
	for idx := 0; idx < v; idx++ {
		size, mult := 0, 1.0
		for j := range groups {
			size += tv[j]
			mult *= rows[j][tv[j]]
		}
		for j, g := range groups {
			if size == n || tv[j] == g.count {
				continue
			}
			// C(c_g−1, t_g) = C(c_g, t_g)·(c_g − t_g)/c_g.
			coef := mult * float64(g.count-tv[j]) / float64(g.count) * p[size]
			x := coef * (worths[idx+stride[j]] - worths[idx])
			sum := phi[j] + x
			if math.Abs(phi[j]) >= math.Abs(x) {
				comp[j] += phi[j] - sum + x
			} else {
				comp[j] += x - sum + phi[j]
			}
			phi[j] = sum
		}
		next()
	}
	for j := range phi {
		phi[j] += comp[j]
	}
	return phi, scale
}

// matrixCatalog is a catalog of nTypes small VM types, so hundreds of VMs
// fit the dense profile.
func matrixCatalog(nTypes int) vm.Catalog {
	c := make(vm.Catalog, nTypes)
	for i := range c {
		c[i] = vm.Type{ID: vm.TypeID(i), Name: fmt.Sprintf("T%d", i), VCPUs: 1 + i%2, MemoryGB: 2 + 2*i, DiskGB: 20 + 10*i}
	}
	return c
}

// matrixRig calibrates an estimator on the dense profile over the given
// VM types, one per VM in ID order, and binds VM i to synthetic stream
// streams[i]: VMs of one type on one stream keep bit-equal states.
func matrixRig(t testing.TB, nTypes int, types []int, streams []int64, seed int64) (*hypervisor.Host, *Estimator) {
	t.Helper()
	mach, err := machine.New(machine.DenseProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, len(types))
	for i, typ := range types {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%03d", i), Type: vm.TypeID(typ)}
	}
	set, err := vm.NewSet(matrixCatalog(nTypes), vms)
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.Perfect(host.PowerSource())
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(host, m, Config{Seed: seed, OfflineTicksPerCombo: 16, IdleMeasureTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := range types {
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: seed*1000 + streams[i], IdleProb: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	startAll(t, host)
	return host, est
}

// skewModel re-imports the estimator's model with a third of the
// combos' weight components negated, so many coalitions' linear worths
// go negative and the clamp at 0 fires. Importing drops the
// exact-match table.
func skewModel(t testing.TB, est *Estimator, rng *rand.Rand) {
	t.Helper()
	var buf bytes.Buffer
	if err := est.approx.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	for _, c := range file["combos"].([]any) {
		if rng.Intn(3) != 0 {
			continue
		}
		w := c.(map[string]any)["weights"].([]any)
		for i := range w {
			if rng.Intn(2) == 0 {
				w[i] = -2 * w[i].(float64)
			}
		}
	}
	raw, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.approx.Import(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// forceKeys adds samples at the features of coalitions of the snapshot's
// running VMs, each 7 W off the plan's worth, and retrains, so those
// coalitions — and every one with the same count vector — hit the
// published exact-match table. On hosts a mask can describe the
// coalitions are random subsets whose features add in VM-ID order; on
// wider hosts they are random count vectors over the tick's groups,
// added in group order as the exact tier adds them.
func forceKeys(t testing.TB, est *Estimator, rng *rand.Rand, snap hypervisor.Snapshot, keys int) {
	t.Helper()
	plan, err := est.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	var g groupScratch
	members := g.runningMembers(snap)
	if len(members) < 2 {
		return
	}
	if err := g.build(plan, snap, members); err != nil {
		t.Fatal(err)
	}
	const k = int(vm.NumComponents)
	for added := 0; added < keys; {
		var combo vhc.ComboMask
		var feat [vhc.MaxFeatureLen]float64
		size := 0
		if len(snap.States) <= vm.MaxPlayers {
			var s vm.Coalition
			for _, i := range members {
				if rng.Intn(2) == 0 {
					s |= 1 << uint(i)
				}
			}
			size = s.Size()
			if size == 0 || size == len(members) {
				continue
			}
			var feats []float64
			if combo, feats, err = vhc.ClassedFeaturesFor(est.host.Set(), flagsOf(s, len(snap.States)), snap.States, est.classes); err != nil {
				t.Fatal(err)
			}
			copy(feat[:], feats)
		} else {
			tv := make([]int, len(g.groups))
			for j, gr := range g.groups {
				tv[j] = rng.Intn(gr.count + 1)
				size += tv[j]
				if tv[j] > 0 {
					combo |= gr.bit
				}
			}
			if size == 0 || size == len(members) {
				continue
			}
			for j, gr := range g.groups {
				base := (combo & (gr.bit - 1)).Size() * k
				for x := 0; x < tv[j]; x++ {
					for c := 0; c < k; c++ {
						feat[base+c] += gr.state[c]
					}
				}
			}
		}
		v, err := plan.Worth(combo, &feat)
		if err != nil {
			t.Fatal(err)
		}
		if err := est.approx.AddSample(combo, feat[:combo.Size()*k], v+7); err != nil {
			t.Fatal(err)
		}
		added++
	}
	if err := est.approx.Train(); err != nil {
		t.Fatal(err)
	}
}

// checkAgainst fails unless every share is within 1e-12 of the worth
// scale of its oracle value.
func checkAgainst(t testing.TB, what string, got, want []float64, scale float64) {
	t.Helper()
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12*scale || math.IsNaN(got[i]) {
			t.Fatalf("%s: VM %d got %.17g, oracle %.17g (|Δ| %.3g, bound %.3g)", what, i, got[i], want[i], d, 1e-12*scale)
		}
	}
}

// TestExactMatchesTextbook is the exact tier's oracle property: on a
// seeded matrix of 4–14-VM layouts of 1–4 classes, with distinct or
// grouped states, stopped VMs, forced table hits (on grouped coalitions
// where states are grouped) and, on every other layout, negative weight
// components that make the clamp fire, every share Estimate serves
// matches the textbook 2^n sum over Plan.Eval's game to 1e-12 of the
// worth scale. The matrix must see hits and clamps.
func TestExactMatchesTextbook(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	hits, clamps := 0, 0
	for layout := 0; layout < 16; layout++ {
		n := 4 + rng.Intn(11)
		nTypes := 1 + layout%4
		types := make([]int, n)
		for i := range types {
			types[i] = rng.Intn(nTypes)
		}
		groups := 0
		streams := make([]int64, n)
		for i := range streams {
			streams[i] = int64(i)
			if layout%3 != 0 {
				groups = 1 + layout%2
				streams[i] = int64(i % groups)
			}
		}
		host, est := matrixRig(t, nTypes, types, streams, int64(layout+1))
		if layout%2 == 1 {
			skewModel(t, est, rng)
		}
		if layout%4 == 3 {
			if err := host.Stop(vm.ID(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
		for tick := 0; tick < 3; tick++ {
			host.Advance(1)
			snap := host.Collect()
			forceKeys(t, est, rng, snap, 1+rng.Intn(4))
			power, err := host.TruePower()
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := est.Estimate(snap, power)
			if err != nil {
				t.Fatalf("layout %d tick %d: %v", layout, tick, err)
			}
			if alloc.Prov.Tier != TierExact {
				t.Fatalf("layout %d tick %d: tier %s", layout, tick, alloc.Prov.Tier)
			}
			plan, err := est.ensurePlan()
			if err != nil {
				t.Fatal(err)
			}
			want, scale := textbookShares(t, plan, runningMask(t, snap), snap.States, alloc.DynamicPower)
			checkAgainst(t, fmt.Sprintf("layout %d (n=%d, %d classes, groups %d) tick %d", layout, n, nTypes, groups, tick),
				alloc.PerVM, want, scale)
			h, c := gameShape(t, plan, snap)
			hits += h
			clamps += c
		}
	}
	if hits == 0 || clamps == 0 {
		t.Fatalf("the matrix saw %d table hits and %d clamps, want both", hits, clamps)
	}
}

// gameShape counts the proper coalitions of a tick that hit the table
// and that clamp at 0.
func gameShape(t testing.TB, plan *vhc.Plan, snap hypervisor.Snapshot) (hits, clamps int) {
	t.Helper()
	const k = int(vm.NumComponents)
	running := runningMask(t, snap)
	for s := running; s != 0; s = (s - 1) & running {
		if s == running {
			continue
		}
		var feat [vhc.MaxFeatureLen]float64
		var combo vhc.ComboMask
		for _, id := range s.Members() {
			bit, err := plan.ClassBit(int(id))
			if err != nil {
				t.Fatal(err)
			}
			combo |= bit
		}
		for _, id := range s.Members() {
			bit, _ := plan.ClassBit(int(id))
			base := (combo & (bit - 1)).Size() * k
			for c := 0; c < k; c++ {
				feat[base+c] += snap.States[id][c]
			}
		}
		if _, ok := plan.TableMean(combo, &feat); ok {
			hits++
			continue
		}
		var dot float64
		for i, w := range plan.Weights(combo) {
			dot += w * feat[i]
		}
		if dot < 0 {
			clamps++
		}
	}
	return hits, clamps
}

// TestExactMatchesCountTextbookWide extends the oracle to wide grouped
// hosts of up to 200 VMs, where no mask exists: the served shares match
// the count-vector textbook sum to 1e-12 of the worth scale, with
// forced hits on random count vectors and, on every other layout,
// negative weights.
func TestExactMatchesCountTextbookWide(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	// Each layout lists its groups as (type, size) pairs; V stays small
	// enough for the oracle to enumerate.
	for layout, spec := range [][][2]int{
		{{0, 190}, {0, 6}, {0, 3}, {0, 1}},
		{{0, 150}, {0, 3}, {1, 45}, {1, 2}},
		{{0, 150}, {0, 1}, {1, 30}, {2, 18}, {2, 1}},
		{{1, 60}, {0, 2}, {1, 1}, {0, 3}, {1, 2}},
	} {
		var types []int
		var streams []int64
		for j, gr := range spec {
			for i := 0; i < gr[1]; i++ {
				types = append(types, gr[0])
				streams = append(streams, int64(j))
			}
		}
		n, nTypes := len(types), 0
		for _, typ := range types {
			nTypes = max(nTypes, typ+1)
		}
		host, est := matrixRig(t, nTypes, types, streams, int64(100+layout))
		if layout%2 == 1 {
			skewModel(t, est, rng)
		}
		if err := host.Stop(vm.ID(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 2; tick++ {
			host.Advance(1)
			snap := host.Collect()
			forceKeys(t, est, rng, snap, 3)
			power, err := host.TruePower()
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := est.Estimate(snap, power)
			if err != nil {
				t.Fatalf("layout %d tick %d: %v", layout, tick, err)
			}
			plan, err := est.ensurePlan()
			if err != nil {
				t.Fatal(err)
			}
			var g groupScratch
			if err := g.build(plan, snap, g.runningMembers(snap)); err != nil {
				t.Fatal(err)
			}
			want, scale := countTextbook(t, plan, g.groups, alloc.DynamicPower)
			got := make([]float64, len(g.groups))
			for i, j := range g.groupOf {
				if j >= 0 {
					got[j] = alloc.PerVM[i]
				}
			}
			checkAgainst(t, fmt.Sprintf("layout %d (n=%d, %d classes) tick %d", layout, n, nTypes, tick), got, want, scale)
		}
	}
}
