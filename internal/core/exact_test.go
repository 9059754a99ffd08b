package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/shapley"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// axiomLayout draws one layout of the property matrix: n VMs over nTypes
// classes, the first VMs spread over the minor classes (at most two
// each) and the rest in class 0, so that even 200 VMs over six classes
// stay within the exact budget. Distinct layouts give every VM its own
// stream; grouped ones put each class on one stream except a few
// singletons.
func axiomLayout(n, nTypes int, distinct bool) ([]int, []int64) {
	types := make([]int, n)
	streams := make([]int64, n)
	for i := range types {
		if nTypes > 1 && i < 2*(nTypes-1) {
			types[i] = 1 + i%(nTypes-1)
		}
		streams[i] = int64(100 * types[i])
		if distinct || i%7 == 3 && i < 20 {
			streams[i] = int64(1000 + i)
		}
	}
	return types, streams
}

// TestExactAxiomMatrix checks the paper's axioms on every exact tick of
// a seeded matrix of layouts: 1–6 classes, 3–200 VMs, distinct and
// grouped states, stopped VMs, forced table hits and (on every other
// layout) negative weight components. VMs of one class with bit-equal
// states get == shares (Symmetry), stopped VMs get exactly 0 (Dummy),
// and |Σφ − dyn| ≤ 1e-9·max(1, dyn) (Efficiency).
func TestExactAxiomMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sizes := []int{3, 8, 15, 22, 40, 120, 200}
	pairs := 0
	for layout := 0; layout < 14; layout++ {
		n, nTypes := sizes[layout%len(sizes)], 1+layout%6
		distinct := n <= 22 && layout%2 == 0
		types, streams := axiomLayout(n, nTypes, distinct)
		host, est := matrixRig(t, nTypes, types, streams, int64(300+layout))
		if layout%2 == 1 {
			skewModel(t, est, rng)
		}
		for _, id := range rng.Perm(n)[:n/10] {
			if err := host.Stop(vm.ID(id)); err != nil {
				t.Fatal(err)
			}
		}
		for tick := 0; tick < 3; tick++ {
			host.Advance(1)
			snap := host.Collect()
			if tick > 0 {
				forceKeys(t, est, rng, snap, 2)
			}
			alloc, err := est.EstimateTick()
			if err != nil {
				t.Fatalf("layout %d tick %d: %v", layout, tick, err)
			}
			what := fmt.Sprintf("layout %d (n=%d, %d classes, distinct %v) tick %d", layout, n, nTypes, distinct, tick)
			if alloc.Prov.Tier != TierExact {
				t.Fatalf("%s: tier %s", what, alloc.Prov.Tier)
			}
			type key struct {
				typ   int
				state vm.State
			}
			first := map[key]float64{}
			var sum float64
			for i, p := range alloc.PerVM {
				sum += p
				if !snap.Running[i] {
					if p != 0 {
						t.Fatalf("%s: stopped VM %d got %v", what, i, p)
					}
					continue
				}
				k := key{types[i], snap.States[i]}
				if q, ok := first[k]; ok {
					pairs++
					if p != q {
						t.Fatalf("%s: VM %d got %.17g, an identical VM %.17g", what, i, p, q)
					}
				}
				first[k] = p
			}
			if d := math.Abs(sum - alloc.DynamicPower); d > 1e-9*math.Max(1, alloc.DynamicPower) {
				t.Fatalf("%s: |Σφ − dyn| = %g", what, d)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no two VMs shared a class and a state")
	}
}

// TestExactModelResidual pins the residual the exact tier serves: δ =
// dyn − v̂(N), with v̂(N) Plan.Eval's worth of the running set, and every
// running VM's served share minus its share in the model game (grand
// worth v̂(N)) equal to δ/n within 1e-12·max(1, dyn); stopped VMs differ
// by nothing. Layouts include table hits and negative weights.
func TestExactModelResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for layout := 0; layout < 6; layout++ {
		n := 5 + rng.Intn(8)
		types, streams := axiomLayout(n, 1+layout%3, layout%2 == 0)
		host, est := matrixRig(t, 1+layout%3, types, streams, int64(400+layout))
		if layout%3 == 2 {
			skewModel(t, est, rng)
		}
		if err := host.Stop(vm.ID(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 3; tick++ {
			host.Advance(1)
			snap := host.Collect()
			forceKeys(t, est, rng, snap, 2)
			alloc, err := est.EstimateTick()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := est.ensurePlan()
			if err != nil {
				t.Fatal(err)
			}
			dyn := alloc.DynamicPower
			running := runningMask(t, snap)
			vhat, err := plan.Eval(running, snap.States)
			if err != nil {
				t.Fatal(err)
			}
			delta := dyn - vhat
			if alloc.Prov.ModelResidualWatts != delta || alloc.Prov.ModelResidualRel != delta/dyn {
				t.Fatalf("layout %d tick %d: residual %g W (%g), want %g W (%g)", layout, tick,
					alloc.Prov.ModelResidualWatts, alloc.Prov.ModelResidualRel, delta, delta/dyn)
			}
			model, _ := textbookShares(t, plan, running, snap.States, vhat)
			nr := float64(running.Size())
			for i, p := range alloc.PerVM {
				want := 0.0
				if snap.Running[i] {
					want = delta / nr
				}
				if d := math.Abs(p - model[i] - want); d > 1e-12*math.Max(1, dyn) {
					t.Fatalf("layout %d tick %d VM %d: served − model = %.17g, want %.17g", layout, tick, i, p-model[i], want)
				}
			}
		}
	}
}

// replacedTier is the tier gate of the mask, collapsed and Monte-Carlo
// tiers the exact tier replaced (ExactMaxPlayers at its default of 16),
// for a host of nSet VMs whose running VMs form groups of the given
// sizes. The collapsed tier's budget depended on the running count.
func replacedTier(nSet int, counts []int) string {
	nr, v := 0, 1
	for _, c := range counts {
		nr += c
		v *= c + 1
	}
	budget := 1 << 22
	switch {
	case nr <= 16:
		budget = 1 << (nr - 1)
	case nr <= vm.MaxPlayers:
		budget = 1 << 16
	}
	switch {
	case len(counts) < nr && v <= budget, nSet <= 16:
		return TierExact // the collapsed tier, or the mask tier
	case nSet <= vm.MaxPlayers:
		return TierMonteCarlo
	}
	return "error"
}

// TestExactCoversReplacedTierLayouts enumerates group layouts — every
// split of up to 30 running VMs into groups of sizes 1–4 on hosts of
// that many VMs and a few more, plus wide hosts — and checks the gate:
// a layout the replaced tiers served exactly is served by the exact tier
// whatever its correction search costs, and a layout they sampled or
// refused is still sampled or refused when its search runs past
// searchCap, unless it fits the exact budget. Then a few layouts run end
// to end through EstimateTick, and on a host of 24 distinct VMs, whose
// ticks' searches end on both sides of the cap, every tick gets the tier
// the gate predicts from its uncapped search's node count, with the
// uncapped search's shares bit for bit when it is exact.
func TestExactCoversReplacedTierLayouts(t *testing.T) {
	tier := func(nSet int, counts []int, finished bool) string {
		g := groupScratch{}
		for _, c := range counts {
			g.groups = append(g.groups, group{count: c})
		}
		switch {
		case g.vectors() <= exactBudget, finished:
			return TierExact
		case nSet <= vm.MaxPlayers:
			return TierMonteCarlo
		}
		return "error"
	}
	moved := 0
	var walk func(counts []int, left, max int)
	walk = func(counts []int, left, max int) {
		nr := 0
		for _, c := range counts {
			nr += c
		}
		if nr > 0 {
			for _, nSet := range []int{nr, nr + 2, nr + 8} {
				old, now := replacedTier(nSet, counts), tier(nSet, counts, false)
				if old != now && now != TierExact {
					t.Fatalf("host of %d VMs with groups %v: replaced tiers %s, now %s", nSet, counts, old, now)
				}
				if old != now {
					moved++
				}
			}
		}
		for c := 1; c <= min(max, left); c++ {
			walk(append(counts, c), left-c, c)
		}
	}
	walk(nil, 30, 4)
	for _, counts := range [][]int{{190, 3, 3, 2, 1, 1}, {100, 100}, {40, 40, 40, 40, 40}, {1 << 9}} {
		nr := 0
		for _, c := range counts {
			nr += c
		}
		if old, now := replacedTier(nr, counts), tier(nr, counts, false); old != now {
			t.Fatalf("wide host with groups %v: replaced tiers %s, now %s", counts, old, now)
		}
	}
	if moved == 0 {
		t.Fatal("no layout moved to the exact tier")
	}

	for _, tc := range []struct {
		name   string
		types  []int
		groups int // VMs per shared stream; 1 is distinct
	}{
		{"mask16", make([]int, 16), 1},
		{"sym24", make([]int, 24), 3},
		{"distinct20", make([]int, 20), 1},
	} {
		streams := make([]int64, len(tc.types))
		for i := range streams {
			streams[i] = int64(i / tc.groups)
		}
		host, est := matrixRig(t, 1, tc.types, streams, 7)
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if alloc.Prov.Tier != TierExact {
			t.Fatalf("%s: tier %s, want %s", tc.name, alloc.Prov.Tier, TierExact)
		}
	}

	streams := make([]int64, vm.MaxPlayers)
	for i := range streams {
		streams[i] = int64(i)
	}
	host, est := matrixRig(t, 1, make([]int, vm.MaxPlayers), streams, 7)
	plan, err := est.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for tick := 0; tick < 10; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatalf("distinct24 tick %d: %v", tick, err)
		}
		var sc scratch
		g := &sc.groups
		snap := host.Collect()
		if err := g.build(plan, snap, g.runningMembers(snap)); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(g.groups))
		for j, gr := range g.groups {
			counts[j] = gr.count
		}
		phi, _, err := sc.exact.solve(plan, g, alloc.DynamicPower, math.MaxInt, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes := sc.exact.search.nodes
		want := tier(vm.MaxPlayers, counts, nodes <= searchCap)
		if alloc.Prov.Tier != want {
			t.Fatalf("distinct24 tick %d: tier %s, want %s (%d groups, %d uncapped search nodes)", tick, alloc.Prov.Tier, want, len(g.groups), nodes)
		}
		seen[want]++
		if want != TierExact {
			continue
		}
		for i, j := range g.groupOf {
			if math.Float64bits(alloc.PerVM[i]) != math.Float64bits(phi[j]) {
				t.Fatalf("distinct24 tick %d VM %d: capped search %.17g, uncapped %.17g", tick, i, alloc.PerVM[i], phi[j])
			}
		}
	}
	if seen[TierExact] == 0 || seen[TierMonteCarlo] == 0 {
		t.Fatalf("distinct24 tiers %v, want ticks on both sides of the cap", seen)
	}
}

// TestMonteCarloSharesPinned pins the Monte-Carlo tier's shares bit for
// bit on mcRig, whose ticks the correction search cannot finish under
// searchCap: six sampled ticks at the production budget of
// shapley.DefaultPermutations must hash to the digest the same shape
// produced when every tick past the exact budget was sampled, so a tick
// that is still sampled keeps its bits.
func TestMonteCarloSharesPinned(t *testing.T) {
	const want = uint64(0xc3949e12c5ea125f)
	host, est := mcRig(t, Config{Seed: 8})
	h := fnv.New64a()
	var buf [8]byte
	for tick := 0; tick < 6; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Prov.Tier != TierMonteCarlo {
			t.Fatalf("tick %d: tier %s", tick, alloc.Prov.Tier)
		}
		for _, p := range alloc.PerVM {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("share digest %#016x, want %#016x", got, want)
	}
}

// spec24Rig calibrates the mc24 benchmark workload's host: 24 small
// Xeon VMs, VM i on SPEC trace i mod 7 seeded seed+i, a meter with
// 0.25 W of noise and the default calibration.
func spec24Rig(t testing.TB, seed int64) (*hypervisor.Host, *Estimator) {
	t.Helper()
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, vm.MaxPlayers)
	for i := range vms {
		vms[i] = vm.VM{Name: fmt.Sprintf("vm%02d", i)}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.NewSim(host.PowerSource(), meter.SimOptions{NoiseStdDev: 0.25, Resolution: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(host, m, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := range vms {
		gen, err := workload.ByName(suite[i%len(suite)], seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			t.Fatal(err)
		}
	}
	startAll(t, host)
	return host, est
}

// TestExactServesSPEC24PastBudget serves the mc24 benchmark's shape, 24
// small Xeon VMs on distinct SPEC traces: their groups span more than
// exactBudget count vectors, but the correction search is pruned at
// every combo's root, so each tick is served exactly under searchCap.
// The first tick matches the count-vector textbook sum to 1e-12 of the
// worth scale (enumerating its ~10^7 vectors takes seconds). Each
// tick's shares are also compared with the Monte-Carlo estimate the
// tick got when every tick past the budget was sampled; the largest
// per-VM gap is logged.
func TestExactServesSPEC24PastBudget(t *testing.T) {
	host, est := spec24Rig(t, 1)
	plan, err := est.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	var gap float64
	for tick := 0; tick < 8; tick++ {
		host.Advance(1)
		alloc, err := est.EstimateTick()
		if err != nil {
			t.Fatal(err)
		}
		snap := host.Collect()
		var g groupScratch
		if err := g.build(plan, snap, g.runningMembers(snap)); err != nil {
			t.Fatal(err)
		}
		if alloc.Prov.Tier != TierExact || alloc.Prov.TierReason != reasonExactCap || g.vectors() <= exactBudget {
			t.Fatalf("tick %d: tier %s (%s) over %d groups", tick, alloc.Prov.Tier, alloc.Prov.TierReason, len(g.groups))
		}
		if tick == 0 {
			want, scale := countTextbook(t, plan, g.groups, alloc.DynamicPower)
			got := make([]float64, len(g.groups))
			for i, j := range g.groupOf {
				got[j] = alloc.PerVM[i]
			}
			checkAgainst(t, "SPEC tick", got, want, scale)
		}
		worth, _ := planWorth(plan, runningMask(t, snap), snap.States, alloc.DynamicPower)
		res, err := shapley.MonteCarlo(len(alloc.PerVM), worth, shapley.MCOptions{
			Seed: est.cfg.Seed ^ int64(snap.Tick), Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range alloc.PerVM {
			gap = math.Max(gap, math.Abs(p-res.Phi[i]))
		}
	}
	t.Logf("largest per-VM |exact − Monte Carlo| over 8 ticks: %.3f W", gap)
}

// dropCombo re-imports the estimator's model without combo's weights.
func dropCombo(t *testing.T, est *Estimator, combo vhc.ComboMask) {
	t.Helper()
	var buf bytes.Buffer
	if err := est.approx.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var kept []any
	for _, c := range file["combos"].([]any) {
		if vhc.ComboMask(c.(map[string]any)["combo"].(float64)) != combo {
			kept = append(kept, c)
		}
	}
	file["combos"] = kept
	raw, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.approx.Import(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// TestExactUntrainedCombo pins the errors of untrained combinations. On
// the test rig (two VM1s and one VM2) without the {VM1, VM2} model, the
// running set {VM1a, VM1b, VM2} fails the tick — its proper coalition
// {VM1a, VM2} needs that model, as the enumerating tiers needed it —
// while {VM1a, VM2}, the only coalition of that combination, is served.
func TestExactUntrainedCombo(t *testing.T) {
	host, est := testRig(t, Config{Seed: 4})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	dropCombo(t, est, 0b11)
	host.SetCoalition(vm.CoalitionOf(0, 1, 2))
	host.Advance(1)
	if _, err := est.EstimateTick(); !errors.Is(err, vhc.ErrUntrained) {
		t.Fatalf("proper coalition of an untrained combo: error %v, want vhc.ErrUntrained", err)
	}
	host.SetCoalition(vm.CoalitionOf(0, 2))
	host.Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatalf("untrained combo reached only by the running set: %v", err)
	}
	if alloc.Prov.ModelResidualWatts != 0 || alloc.Prov.Tier != TierExact {
		t.Fatalf("tier %s, residual %g W: want the exact tier and no residual", alloc.Prov.Tier, alloc.Prov.ModelResidualWatts)
	}
	var sum float64
	for _, p := range alloc.PerVM {
		sum += p
	}
	if math.Abs(sum-alloc.DynamicPower) > 1e-9*math.Max(1, alloc.DynamicPower) || alloc.PerVM[1] != 0 {
		t.Fatalf("shares %v for dyn %g", alloc.PerVM, alloc.DynamicPower)
	}
}

// FuzzClosedForm compares the exact tier with the textbook 2^n sum on
// random games of up to 10 VMs over 1–3 classes: grouped states that are
// multiples of 1/64 (so every feature sum is exact in any order), random
// weights with negative components, exact-match keys forced on random
// coalitions, and a random running set. The shares must agree to 1e-12
// of the worth scale. The search is also run under a fuzzed node cap
// first, on the scratch the uncapped solve then reuses: a search that
// finishes under it gives the uncapped bits, and one that runs past it
// says so, stops at the first node past the cap and returns no φ. The
// first seed's search takes 18 nodes; the last runs it past a cap of 5.
func FuzzClosedForm(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(3), uint8(2), uint8(40))
	f.Add(int64(7), uint8(10), uint8(3), uint8(2), uint8(5), uint8(3))
	f.Add(int64(42), uint8(9), uint8(1), uint8(1), uint8(0), uint8(255))
	f.Add(int64(1), uint8(6), uint8(2), uint8(3), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nVMs, nTypes, nStates, nKeys, nodeCap uint8) {
		n, r := 1+int(nVMs)%10, 1+int(nTypes)%3
		rng := rand.New(rand.NewSource(seed))
		vms := make([]vm.VM, n)
		for i := range vms {
			vms[i] = vm.VM{Name: fmt.Sprintf("v%d", i), Type: vm.TypeID(rng.Intn(r))}
		}
		set, err := vm.NewSet(matrixCatalog(r), vms)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := vhc.IdentityClassMap(r)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := vhc.New(r, vhc.Options{Resolution: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		const k = int(vm.NumComponents)
		type comboFile struct {
			Combo   uint16    `json:"combo"`
			Weights []float64 `json:"weights"`
		}
		file := struct {
			Version  int         `json:"version"`
			NumTypes int         `json:"num_types"`
			Combos   []comboFile `json:"combos"`
		}{Version: 1, NumTypes: r}
		for combo := 1; combo < 1<<r; combo++ {
			w := make([]float64, vhc.ComboMask(combo).Size()*k)
			for i := range w {
				w[i] = rng.Float64()*40 - 10
			}
			file.Combos = append(file.Combos, comboFile{Combo: uint16(combo), Weights: w})
		}
		raw, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := approx.Import(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		pool := make([]vm.State, 1+int(nStates)%4)
		for i := range pool {
			for c := range pool[i] {
				pool[i][c] = float64(rng.Intn(65)) / 64
			}
		}
		states := make([]vm.State, n)
		var running vm.Coalition
		for i := range states {
			states[i] = pool[rng.Intn(len(pool))]
			if rng.Intn(5) != 0 {
				running |= 1 << uint(i)
			}
		}
		members := running.Members()
		for key := 0; key < int(nKeys)%6 && len(members) > 1; key++ {
			var s vm.Coalition
			for _, id := range members {
				if rng.Intn(2) == 0 {
					s |= 1 << uint(id)
				}
			}
			if s.IsEmpty() || s == running {
				continue
			}
			combo, feats, err := vhc.ClassedFeaturesFor(set, flagsOf(s, n), states, classes)
			if err != nil {
				t.Fatal(err)
			}
			if err := approx.AddSample(combo, feats, rng.Float64()*100); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := vhc.NewPlan(set, classes, approx)
		if err != nil {
			t.Fatal(err)
		}
		dyn := rng.Float64() * 200
		snap := hypervisor.Snapshot{Running: flagsOf(running, n), States: states}
		var sc scratch
		g := &sc.groups
		got := make([]float64, n)
		if members := g.runningMembers(snap); len(members) > 0 {
			if err := g.build(plan, snap, members); err != nil {
				t.Fatal(err)
			}
			limit := int(nodeCap)
			capped, done, err := sc.exact.solve(plan, g, dyn, limit, nil)
			if err != nil {
				t.Fatal(err)
			}
			capped = slices.Clone(capped)
			if nodes := sc.exact.search.nodes; done != (nodes <= limit) || !done && (nodes != limit+1 || capped != nil) {
				t.Fatalf("cap %d: finished %v after %d nodes, φ %v", limit, done, nodes, capped)
			}
			phi, done, err := sc.exact.solve(plan, g, dyn, math.MaxInt, nil)
			if err != nil || !done {
				t.Fatalf("uncapped solve: finished %v, %v", done, err)
			}
			for j := range capped {
				if math.Float64bits(capped[j]) != math.Float64bits(phi[j]) {
					t.Fatalf("cap %d: group %d got %.17g, uncapped %.17g", limit, j, capped[j], phi[j])
				}
			}
			for _, i := range members {
				got[i] = phi[g.groupOf[i]]
			}
		}
		want, scale := textbookShares(t, plan, running, states, dyn)
		checkAgainst(t, fmt.Sprintf("n=%d r=%d running=%s", n, r, running), got, want, scale)
	})
}

// TestExactSolveZeroAlloc pins the exact tier's buffer reuse: once a
// scratch has served a layout, grouping and solving a tick of it —
// corrections found, table hits and clamps included — allocate nothing.
func TestExactSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	types, streams := axiomLayout(16, 2, false)
	host, est := matrixRig(t, 2, types, streams, 12)
	skewModel(t, est, rng)
	host.Advance(1)
	snap := host.Collect()
	forceKeys(t, est, rng, snap, 3)
	plan, err := est.ensurePlan()
	if err != nil {
		t.Fatal(err)
	}
	var sc scratch
	tick := func() {
		g := &sc.groups
		if err := g.build(plan, snap, g.runningMembers(snap)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sc.exact.solve(plan, g, 80, math.MaxInt, nil); err != nil {
			t.Fatal(err)
		}
	}
	tick()
	if sc.exact.visited == 0 {
		t.Fatal("the search evaluated no count vector")
	}
	if allocs := testing.AllocsPerRun(50, tick); allocs != 0 {
		t.Fatalf("a steady exact tick allocates %v times, want 0", allocs)
	}
}
