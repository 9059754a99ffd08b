package vhc

import (
	"fmt"
	"math/bits"

	"vmpower/internal/vm"
)

// This file extends the compiled worth plan to symmetry-collapsed
// evaluation: when the host's VMs group into classes that share a VHC
// class bit AND a bit-equal quantized state, v(S, C) depends only on how
// many members of each class S contains, and the plan can evaluate a
// type-count vector directly without materialising any coalition mask.
// This is what lets core estimate exactly past the 2^n mask wall.

// SymClass describes one symmetry class of the current tick: a maximal
// group of running VMs with the same plan class bit and bit-equal state.
type SymClass struct {
	// Bit is the plan class bit shared by every member (1 << VHC class).
	Bit ComboMask
	// State is the members' shared quantized state (bit-equal across the
	// class by construction).
	State vm.State
	// Count is the number of members.
	Count int
	// First is the lowest VM ID in the class, fixing a stable class order.
	First int
}

// ClassBit returns VM i's compiled class bit (1 << class(type(vm i))).
func (p *Plan) ClassBit(i int) (ComboMask, error) {
	if i < 0 || i >= p.n {
		return 0, fmt.Errorf("vhc: plan compiled for %d VMs, no VM %d", p.n, i)
	}
	return p.classBit[i], nil
}

// symSlotBudget caps the entries of one feature slot's sum table (24
// bytes each): 2^16 entries keeps every table of a tick under 19 MiB
// across all MaxTypes slots, and no slot of a game within the mask-range
// vector budgets (at most 2^16 vectors) ever spills.
const symSlotBudget = 1 << 16

// SymEval evaluates v(t, C) for one tick's symmetry classes in time
// independent of the class sizes. The zero value is ready; Reset before
// use. It is owned by one goroutine.
//
// A coalition's feature slot for VHC class s is the sum of its members'
// states, and the result must be bit-equal to adding them one at a time:
// class by class in class order, t[j] copies of class j's state each (a
// multiplicative t·x shortcut could differ in the last ulp and flip an
// exact-match table hit near a lattice boundary). That sum is a function
// of the slot's own counts only, so Reset tabulates it per slot over the
// mixed-radix sub-lattice of the slot's classes, and EvalCounts reads one
// entry per present slot instead of accumulating up to n states. A slot
// entry is built from the entry with one fewer member of its highest
// present class — the last addition of the member-by-member order — so
// the table holds exactly the sums that order produces.
//
// A slot whose sub-lattice would exceed symSlotBudget tabulates its
// leading classes only; the rest ("tail" classes) are still added member
// by member after the table read, in the same order, so the budget
// bounds memory without changing any sum.
//
// The 2^n mask path uses the same tables through ResetMask and EvalMask,
// with every running VM as a class of one: a slot's table then holds the
// subset sums of its members' states, and an index built per running
// set turns a coalition mask into one table position per slot, a byte
// of the mask at a time.
//
// A combo's worth is a sum of one term block per slot (Eq. 10), so in
// mask mode a combo whose coalitions outnumber its slots' table entries
// also gets worth rows (see planRows): per slot and table entry, the
// products of the combo's weights with the entry's sums, and whether the
// entry lies inside the combo's table key box. A read of such a combo
// adds the rows' products, in feature order, instead of assembling the
// feature vector and multiplying it out; only a vector whose every slot
// is inside the box still goes through the table lookup.
type SymEval struct {
	plan    *Plan
	classes []SymClass // the classes the tables describe
	slot    []int      // classes[j]'s VHC class, i.e. its feature slot
	stride  []int      // classes[j]'s digit stride in its slot table; 0 for tail classes
	tail    []int      // tail classes, ascending
	tables  [MaxTypes][]vm.State
	lead    []int // build scratch: the slot's tabulated classes
	digits  []int // build scratch: odometer digits over lead

	// Mask mode, set by ResetMask: class j is the j-th running VM.
	masked  bool
	running vm.Coalition // the running VMs, one class each
	tailVMs vm.Coalition // running VMs in tail classes
	slots   []int        // the feature slots present, ascending
	index   []uint16     // see buildIndex
	singles []SymClass   // ResetMask scratch: this tick's classes of one

	// Worth rows, built by ResetMask for rowPlan and read in mask mode
	// only: rowOf[combo] is 1 + the index of combo's columns in rowCols,
	// or 0 when the combo has none, and rows holds every column's rows
	// back to back.
	rowPlan *Plan
	rowOf   []int32
	rowCols []comboCols
	rows    []slotRow
}

// comboCols lists one combo's columns of worth rows, one per slot of the
// combo in feature order: column j belongs to slot e.slots[x[j]], and
// its rows, one per entry of that slot's table, start at rows[at[j]].
type comboCols struct {
	combo ComboMask
	n     int
	x     [MaxTypes]int
	at    [MaxTypes]int
}

// slotRow is one slot-table entry as one combo's worth sees it. term[c]
// is the product of the combo's weight for the slot's feature c with the
// entry's sum c, rounded as Plan.worth rounds it, and lead is the sum of
// the three from zero in that order: the dot product so far when the
// slot comes first in the combo. inBox is false when the entry lies
// outside the combo's table key box, so that no vector containing it
// can hit the table.
type slotRow struct {
	term  [vm.NumComponents]float64
	lead  float64
	inBox bool
}

// Reset binds the evaluator to plan and this tick's classes. A slot's
// table is rebuilt only when one of its tabulated classes changed since
// the previous Reset, so a tick whose states repeat costs O(k).
func (e *SymEval) Reset(p *Plan, classes []SymClass) error {
	return e.reset(p, classes, false)
}

// ResetMask binds the evaluator to plan for mask evaluation (EvalMask):
// every VM in running becomes a class of one, in ascending VM-ID order,
// with its entry of states. The mask index is rebuilt only when the
// running VMs or their class bits change, and a slot's table only when
// one of its members' states changed since the previous ResetMask.
func (e *SymEval) ResetMask(p *Plan, running vm.Coalition, states []vm.State) error {
	e.singles = e.singles[:0]
	for m := uint32(running); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		if i >= p.n || i >= len(states) {
			e.classes, e.masked = e.classes[:0], false
			return fmt.Errorf("vhc: plan compiled for %d VMs with %d states, running set has member %d", p.n, len(states), i)
		}
		e.singles = append(e.singles, SymClass{Bit: p.classBit[i], State: states[i], Count: 1, First: i})
	}
	return e.reset(p, e.singles, true)
}

// reset is Reset and ResetMask. In mask mode the layout also compares
// the classes' VM IDs: the index maps VM bits to table positions, so a
// running-set change that keeps every position's class bit still
// invalidates it.
func (e *SymEval) reset(p *Plan, classes []SymClass, masked bool) error {
	for j, c := range classes {
		if c.Bit == 0 || c.Bit&(c.Bit-1) != 0 || bits.TrailingZeros16(uint16(c.Bit)) >= MaxTypes || c.Count < 0 {
			e.classes, e.masked = e.classes[:0], false
			return fmt.Errorf("vhc: class %d has bit %#x and %d members", j, uint16(c.Bit), c.Count)
		}
	}
	e.plan = p
	same := e.masked == masked && len(e.classes) == len(classes)
	for j := 0; same && j < len(classes); j++ {
		same = e.classes[j].Bit == classes[j].Bit && e.classes[j].Count == classes[j].Count &&
			(!masked || e.classes[j].First == classes[j].First)
	}
	if !same {
		e.masked = masked
		e.layout(classes)
		for s := range e.tables {
			e.build(s)
		}
		if masked {
			e.buildIndex()
			e.planRows()
		}
		return nil
	}
	var stale [MaxTypes]bool
	for j := range classes {
		if e.classes[j].State != classes[j].State {
			e.classes[j].State = classes[j].State
			// Tail classes are read from e.classes, not from a table.
			stale[e.slot[j]] = stale[e.slot[j]] || e.stride[j] > 0
		}
	}
	for s, rebuild := range stale {
		if rebuild {
			e.build(s)
			if masked && e.rowPlan == p {
				e.fillRows(s)
			}
		}
	}
	if masked && e.rowPlan != p {
		e.planRows()
	}
	return nil
}

// layout assigns each class its slot and stride and records the tail.
func (e *SymEval) layout(classes []SymClass) {
	k := len(classes)
	e.classes = append(e.classes[:0], classes...)
	e.slot = resize(e.slot, k)
	e.stride = resize(e.stride, k)
	e.tail = e.tail[:0]
	var size [MaxTypes]int // sub-lattice size so far per slot; 0 once a slot spills into its tail
	for s := range size {
		size[s] = 1
	}
	for j, c := range classes {
		s := bits.TrailingZeros16(uint16(c.Bit))
		e.slot[j] = s
		if size[s] > 0 && size[s]*(c.Count+1) <= symSlotBudget {
			e.stride[j] = size[s]
			size[s] *= c.Count + 1
			continue
		}
		size[s] = 0
		e.stride[j] = 0
		e.tail = append(e.tail, j)
	}
}

// build refills slot s's table. Entry u is the slot's feature sum at the
// sub-vector u decodes to; entry 0 is the empty sum.
func (e *SymEval) build(s int) {
	e.lead = e.lead[:0]
	n := 1
	for j := range e.classes {
		if e.slot[j] == s && e.stride[j] > 0 {
			e.lead = append(e.lead, j)
			n *= e.classes[j].Count + 1
		}
	}
	lead := e.lead
	if cap(e.tables[s]) < n {
		e.tables[s] = make([]vm.State, n)
	}
	tab := e.tables[s][:n]
	e.tables[s] = tab
	tab[0] = vm.State{}
	e.digits = resize(e.digits, len(lead))
	clear(e.digits)
	hi := -1 // highest digit position with a non-zero count; never decreases
	for u := 1; u < n; u++ {
		for q, j := range lead {
			if e.digits[q] < e.classes[j].Count {
				e.digits[q]++
				hi = max(hi, q)
				break
			}
			e.digits[q] = 0
		}
		j := lead[hi]
		prev, st := &tab[u-e.stride[j]], &e.classes[j].State
		for c := range tab[u] {
			tab[u][c] = prev[c] + st[c]
		}
	}
}

// EvalCounts returns v(t, C): the worth of a coalition containing t[j]
// members of symmetry class j, under the plan and classes of the last
// Reset. It is equivalent to Plan.Eval on any mask realising those
// counts whose members ascend class by class. The all-zero vector is the
// empty coalition, worth 0.
func (e *SymEval) EvalCounts(t []int) (float64, error) {
	var feat [maxFeatureLen]float64
	combo, err := e.features(t, &feat)
	if err != nil || combo == 0 {
		return 0, err
	}
	return e.plan.worth(combo, &feat)
}

// features fills feat with the aggregated feature vector of count vector
// t and returns its combo (0 for the empty coalition).
func (e *SymEval) features(t []int, feat *[maxFeatureLen]float64) (ComboMask, error) {
	const k = int(vm.NumComponents)
	if len(t) != len(e.classes) {
		return 0, fmt.Errorf("vhc: %d counts for %d classes", len(t), len(e.classes))
	}
	var combo ComboMask
	var sub [MaxTypes]int
	for j, tj := range t {
		switch {
		case tj < 0 || tj > e.classes[j].Count:
			return 0, fmt.Errorf("vhc: count t[%d]=%d outside [0,%d]", j, tj, e.classes[j].Count)
		case tj > 0:
			combo |= e.classes[j].Bit
			sub[e.slot[j]] += tj * e.stride[j]
		}
	}
	for m := uint16(combo); m != 0; {
		s := bits.TrailingZeros16(m)
		m &^= 1 << uint(s)
		base := bits.OnesCount16(uint16(combo)&(1<<uint(s)-1)) * k
		copy(feat[base:base+k], e.tables[s][sub[s]][:])
	}
	for _, j := range e.tail {
		if t[j] == 0 {
			continue
		}
		base := bits.OnesCount16(uint16(combo&(e.classes[j].Bit-1))) * k
		st := &e.classes[j].State
		for x := 0; x < t[j]; x++ {
			for c := 0; c < k; c++ {
				feat[base+c] += st[c]
			}
		}
	}
	return combo, nil
}

// buildIndex maps every byte of a running-set mask to its table
// positions. The row of byte position q and byte value b holds, for each
// present slot in ascending order, the sum of the strides of the running
// VMs 8q+i with bit i set in b and that slot, followed by the OR of those
// VMs' class bits. Strides of classes of one are distinct powers of two
// below symSlotBudget, so a slot's positions add up without overflowing
// a uint16; tail VMs contribute their class bit only.
func (e *SymEval) buildIndex() {
	e.running, e.tailVMs = 0, 0
	var present [MaxTypes]bool
	for j, c := range e.classes {
		e.running |= 1 << uint(c.First)
		if e.stride[j] == 0 {
			e.tailVMs |= 1 << uint(c.First)
		}
		present[e.slot[j]] = true
	}
	var pos [MaxTypes]int
	e.slots = e.slots[:0]
	for s, ok := range present {
		if ok {
			pos[s] = len(e.slots)
			e.slots = append(e.slots, s)
		}
	}
	w := len(e.slots) + 1
	size := (bits.Len32(uint32(e.running)) + 7) / 8 * 256 * w
	if cap(e.index) < size {
		e.index = make([]uint16, size)
	}
	e.index = e.index[:size]
	clear(e.index)
	for j, c := range e.classes {
		q, bit := c.First/8, 1<<uint(c.First%8)
		for b := bit; b < 256; b++ {
			if b&bit == 0 {
				continue
			}
			row := e.index[(q*256+b)*w:][:w]
			row[pos[e.slot[j]]] += uint16(e.stride[j])
			row[w-1] |= uint16(c.Bit)
		}
	}
}

// planRows picks the combos that get worth rows under the current plan
// and layout, sizes their rows and fills them. A combo gets rows when it
// is trained, none of its slots has tail classes (whose members are
// added after the table read), and its coalitions outnumber its slots'
// table entries, so that filling the rows costs fewer products than the
// reads they replace. A slot of u entries has u − 1 non-empty
// sub-vectors, so a combo of one slot never qualifies, and neither does
// one whose slots each hold a single VM (one coalition, two entries per
// slot).
func (e *SymEval) planRows() {
	p := e.plan
	e.rowPlan = p
	if cap(e.rowOf) < len(p.weights) {
		e.rowOf = make([]int32, len(p.weights))
	}
	e.rowOf = e.rowOf[:len(p.weights)]
	clear(e.rowOf)
	e.rowCols = e.rowCols[:0]
	var present, tailed ComboMask
	for j := range e.classes {
		present |= e.classes[j].Bit
		if e.stride[j] == 0 {
			tailed |= e.classes[j].Bit
		}
	}
	size := 0
	for combo := present; combo != 0; combo = (combo - 1) & present {
		if combo&(combo-1) == 0 || combo&tailed != 0 || int(combo) >= len(p.weights) || p.weights[combo] == nil {
			continue
		}
		// Coalitions saturate past the most entries a combo can have.
		const most = MaxTypes * symSlotBudget
		coalitions, entries := 1, 0
		for m := uint16(combo); m != 0; m &= m - 1 {
			u := len(e.tables[bits.TrailingZeros16(m)])
			coalitions = min(coalitions*(u-1), most+1)
			entries += u
		}
		if coalitions <= entries {
			continue
		}
		c := comboCols{combo: combo}
		for x, s := range e.slots {
			if combo&(1<<uint(s)) != 0 {
				c.x[c.n], c.at[c.n] = x, size
				c.n++
				size += len(e.tables[s])
			}
		}
		e.rowCols = append(e.rowCols, c)
		e.rowOf[combo] = int32(len(e.rowCols))
	}
	if cap(e.rows) < size {
		e.rows = make([]slotRow, size)
	}
	e.rows = e.rows[:size]
	for s := range e.tables {
		e.fillRows(s)
	}
}

// fillRows refills every combo's column of worth rows for slot s from
// its table.
func (e *SymEval) fillRows(s int) {
	const k = int(vm.NumComponents)
	p := e.plan
	for i := range e.rowCols {
		c := &e.rowCols[i]
		if c.combo&(1<<uint(s)) == 0 {
			continue
		}
		t := p.table[c.combo]
		if p.resolution <= 0 {
			t = nil
		}
		j := bits.OnesCount16(uint16(c.combo) & (1<<uint(s) - 1))
		w := (*[k]float64)(p.weights[c.combo][j*k : j*k+k])
		for u, st := range e.tables[s] {
			row := &e.rows[c.at[j]+u]
			row.inBox = t != nil
			row.lead = 0
			for f := 0; f < k; f++ {
				row.term[f] = float64(w[f] * st[f])
				row.lead += row.term[f]
				if row.inBox {
					q := latticeCoord(st[f], p.resolution)
					row.inBox = q >= t.lo[j*k+f] && q <= t.hi[j*k+f]
				}
			}
		}
	}
}

// EvalMask returns v(S, C) for the coalition s ∩ running under the plan
// and states of the last ResetMask; VMs outside the running set are
// dummies. It equals Plan.Eval(s & running, states) bit for bit, and
// like EvalCounts it only reads the evaluator, so any number of
// goroutines may call it between Resets.
func (e *SymEval) EvalMask(s vm.Coalition) (float64, error) {
	if len(e.rowCols) > 0 {
		if v, ok := e.maskRows(s); ok {
			return v, nil
		}
	}
	var feat [maxFeatureLen]float64
	combo, err := e.maskFeatures(s, &feat)
	if err != nil || combo == 0 {
		return 0, err
	}
	return e.plan.worth(combo, &feat)
}

// maskRows returns the worth of s ∩ running from its combo's rows, or
// false when the combo has none or every row it reads lies inside the
// key box, where only the table lookup can tell whether the vector hits.
// The sum is the first column's lead, then the other columns' products
// in feature order: the sum Plan.worth forms before its clamp at zero.
//
// EvalMask reads the rows and assembles the feature vector in separate
// calls, so that no frame on the way to the table lookup holds the
// positions, the 288-byte vector and a row read at once. The goroutines
// that tabulate a tick's worths start on small stacks, which that path
// nearly fills: with 48 more bytes in EvalMask's frame each of them
// grows and copies its stack every tick (Go 1.24 on amd64). A fallback
// computes the positions a second time.
func (e *SymEval) maskRows(s vm.Coalition) (float64, bool) {
	if !e.masked {
		return 0, false
	}
	var sub [MaxTypes]uint16
	combo := e.maskPositions(s, &sub)
	if int(combo) >= len(e.rowOf) || e.rowOf[combo] == 0 {
		return 0, false
	}
	c := &e.rowCols[e.rowOf[combo]-1]
	row := &e.rows[c.at[0]+int(sub[c.x[0]])]
	dot, in := row.lead, row.inBox
	for j := 1; j < c.n; j++ {
		row = &e.rows[c.at[j]+int(sub[c.x[j]])]
		in = in && row.inBox
		for _, v := range row.term {
			dot += v
		}
	}
	if in {
		return 0, false
	}
	if dot < 0 {
		dot = 0
	}
	return dot, true
}

// maskFeatures fills feat with the aggregated feature vector of s ∩
// running and returns its combo (0 for the empty coalition). A slot's
// entry is the sum of its tabulated members' states added in ascending
// VM-ID order; its tail members follow, also in ascending order, which
// is Plan.Eval's addition order.
func (e *SymEval) maskFeatures(s vm.Coalition, feat *[maxFeatureLen]float64) (ComboMask, error) {
	const k = int(vm.NumComponents)
	if !e.masked {
		return 0, fmt.Errorf("vhc: EvalMask needs ResetMask")
	}
	var sub [MaxTypes]uint16
	combo := e.maskPositions(s, &sub)
	base := 0
	for x, sl := range e.slots {
		if combo&(1<<uint(sl)) != 0 {
			*(*vm.State)(feat[base : base+k]) = e.tables[sl][sub[x]]
			base += k
		}
	}
	for m := uint32(s & e.tailVMs); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		c := &e.classes[bits.OnesCount32(uint32(e.running)&(1<<uint(i)-1))]
		b := bits.OnesCount16(uint16(combo&(c.Bit-1))) * k
		for x := 0; x < k; x++ {
			feat[b+x] += c.State[x]
		}
	}
	return combo, nil
}

// maskPositions returns the combo of s ∩ running and adds to sub[x] the
// position of s's members in the table of slot e.slots[x]. Positions are
// added in place, not returned: copying an array just written a uint16
// at a time stalls store forwarding.
func (e *SymEval) maskPositions(s vm.Coalition, sub *[MaxTypes]uint16) (combo ComboMask) {
	w := len(e.slots)
	for q, m := 0, uint32(s&e.running); m != 0; q, m = q+1, m>>8 {
		row := e.index[(q<<8|int(m&0xff))*(w+1):]
		for x, d := range row[:w] {
			sub[x] += d
		}
		combo |= ComboMask(row[w])
	}
	return combo
}

// resize returns s with length n, reallocating only when it must.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// ClassedFeaturesRunning is ClassedFeaturesFor over a running-flag vector
// instead of a coalition mask — the wide-set form used when the VM set
// exceeds the bitmask cap. Flags are scanned in ascending VM-ID order, the
// same addition order as the mask form, so the two agree bit for bit on
// sets both can represent.
func ClassedFeaturesRunning(set *vm.Set, running []bool, states []vm.State, classes *ClassMap) (ComboMask, []float64, error) {
	if err := classes.Validate(); err != nil {
		return 0, nil, err
	}
	if len(states) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d states for %d VMs", len(states), set.Len())
	}
	if len(running) != set.Len() {
		return 0, nil, fmt.Errorf("vhc: %d running flags for %d VMs", len(running), set.Len())
	}
	agg := make(map[vm.TypeID]vm.State, classes.Classes)
	var combo ComboMask
	for i, r := range running {
		if !r {
			continue
		}
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return 0, nil, err
		}
		if int(v.Type) >= len(classes.ByType) {
			return 0, nil, fmt.Errorf("vhc: type %d not covered by class map", v.Type)
		}
		class := vm.TypeID(classes.ByType[v.Type])
		combo |= 1 << uint(class)
		agg[class] = agg[class].Add(states[i])
	}
	return combo, Features(combo, agg), nil
}
