package core

import (
	"math/bits"

	"vmpower/internal/hypervisor"
	"vmpower/internal/vhc"
	"vmpower/internal/vm"
)

// This file groups a tick's running VMs. VMs of one VHC class with a
// bit-equal quantized state are interchangeable in every worth the game
// can ask about, so they form one group, and a coalition is described up
// to symmetry by how many members of each group it holds: a count vector
// t with 0 ≤ t_g ≤ c_g. The group space V = ∏(c_g+1) sizes the tick: the
// exact tier searches it, under a node cap past exactBudget.

// group is one group of running VMs: their class bit, shared state and
// number.
type group struct {
	bit   vhc.ComboMask
	state vm.State
	count int
}

// classSum is one VHC class present in the running set: its bit, its
// number of running VMs and the sum of their states, added in ascending
// VM-ID order as vhc.Plan.Eval adds them.
type classSum struct {
	bit  vhc.ComboMask
	size int
	sum  vm.State
}

// groupScratch holds one tick's grouping.
type groupScratch struct {
	members []int          // running VM ids, ascending
	index   map[symKey]int // group key -> group index, this tick
	groups  []group        // first-seen (ascending VM id) order
	groupOf []int          // VM id -> group index (-1 when stopped)
	present vhc.ComboMask  // classes of the running VMs
	classes []classSum     // present classes, ascending
}

// symKey identifies a group: the compiled VHC class bit plus the
// bit-equal quantized state every member shares.
type symKey struct {
	bit   vhc.ComboMask
	state vm.State
}

// runningMembers fills g.members with the running VM ids in ascending
// order.
func (g *groupScratch) runningMembers(snap hypervisor.Snapshot) []int {
	g.members = g.members[:0]
	for i, r := range snap.Running {
		if r {
			g.members = append(g.members, i)
		}
	}
	return g.members
}

// build groups the running members in first-seen (ascending VM id) order
// and sums each present class's states.
func (g *groupScratch) build(plan *vhc.Plan, snap hypervisor.Snapshot, members []int) error {
	if g.index == nil {
		g.index = make(map[symKey]int)
	}
	clear(g.index)
	g.groups = g.groups[:0]
	n := plan.NumVMs()
	if cap(g.groupOf) < n {
		g.groupOf = make([]int, n)
	}
	g.groupOf = g.groupOf[:n]
	for i := range g.groupOf {
		g.groupOf[i] = -1
	}
	g.present = 0
	for _, i := range members {
		bit, err := plan.ClassBit(i)
		if err != nil {
			return err
		}
		key := symKey{bit: bit, state: snap.States[i]}
		j, ok := g.index[key]
		if !ok {
			j = len(g.groups)
			g.index[key] = j
			g.groups = append(g.groups, group{bit: bit, state: snap.States[i]})
		}
		g.groups[j].count++
		g.groupOf[i] = j
		g.present |= bit
	}
	g.classes = g.classes[:0]
	for m := g.present; m != 0; m &= m - 1 {
		g.classes = append(g.classes, classSum{bit: m & -m})
	}
	for _, i := range members {
		c := &g.classes[g.classIndex(g.groups[g.groupOf[i]].bit)]
		c.size++
		for x, v := range snap.States[i] {
			c.sum[x] += v
		}
	}
	return nil
}

// classIndex returns the position of class bit among the present
// classes, which is also its feature slot in the running set's combo.
func (g *groupScratch) classIndex(bit vhc.ComboMask) int {
	return bits.OnesCount16(uint16(g.present & (bit - 1)))
}

// vectors returns the group space V = ∏(c_g+1), saturated just past
// exactBudget.
func (g *groupScratch) vectors() int {
	v := 1
	for _, gr := range g.groups {
		v *= gr.count + 1
		if v > exactBudget {
			return exactBudget + 1
		}
	}
	return v
}

// residual returns δ = dyn − v̂(N), with v̂(N) the plan's worth of the
// running set: Plan.Eval's value for it, bit for bit. It reports false
// when the running set's combination is untrained.
func (g *groupScratch) residual(plan *vhc.Plan, dyn float64) (float64, bool) {
	const k = int(vm.NumComponents)
	var feat [vhc.MaxFeatureLen]float64
	for j, c := range g.classes {
		copy(feat[j*k:], c.sum[:])
	}
	v, err := plan.Worth(g.present, &feat)
	if err != nil {
		return 0, false
	}
	return dyn - v, true
}
