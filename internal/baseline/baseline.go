// Package baseline implements the VM power estimation policies the paper
// compares against (Secs. III, IV, VII): the per-type linear power model
// trained from marginal contributions (as in Joulemeter-style prior work),
// the raw marginal-contribution rule, and resource-usage-proportional
// rescaling of the measured power.
package baseline

import (
	"errors"
	"fmt"

	"vmpower/internal/hypervisor"
	"vmpower/internal/linalg"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// PowerModel is the per-type linear VM power model p = a·u of the paper's
// Table IV: one CPU coefficient per VM type, trained with the VM alone on
// the machine (its marginal contribution), no intercept (an idle VM draws
// nothing — the Dummy-style assumption the baseline itself makes).
type PowerModel struct {
	// CoefByType maps each VM type to its watts-per-unit-CPU coefficient.
	CoefByType map[vm.TypeID]float64
}

// ErrUnknownType is returned when estimating a VM whose type was not trained.
var ErrUnknownType = errors.New("baseline: type not in power model")

// EstimateVM returns the model's power estimate for one VM.
func (m *PowerModel) EstimateVM(t vm.TypeID, s vm.State) (float64, error) {
	a, ok := m.CoefByType[t]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	return a * s[vm.CPU], nil
}

// Estimate returns the per-VM model estimates for every member of mask
// (non-members get 0), indexed by VM ID.
func (m *PowerModel) Estimate(set *vm.Set, mask vm.Coalition, states []vm.State) ([]float64, error) {
	if len(states) != set.Len() {
		return nil, fmt.Errorf("baseline: %d states for %d VMs", len(states), set.Len())
	}
	out := make([]float64, set.Len())
	for _, id := range mask.Members() {
		v, err := set.VM(id)
		if err != nil {
			return nil, err
		}
		p, err := m.EstimateVM(v.Type, states[int(id)])
		if err != nil {
			return nil, err
		}
		out[int(id)] = p
	}
	return out, nil
}

// AggregateEstimate returns Σ per-VM estimates — the quantity Fig. 11
// shows violating macro-level accuracy.
func (m *PowerModel) AggregateEstimate(set *vm.Set, mask vm.Coalition, states []vm.State) (float64, error) {
	per, err := m.Estimate(set, mask, states)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, p := range per {
		sum += p
	}
	return sum, nil
}

// TrainOptions configures power-model training.
type TrainOptions struct {
	// Ticks is the number of 1 Hz samples per type (default 120).
	Ticks int
	// Seed seeds the synthetic training workload.
	Seed int64
}

// Train builds the per-type power model exactly as the prior work the
// paper replicates (Sec. III-A): each VM type runs alone on the host under
// the synthetic random-CPU benchmark, and the marginal machine power
// (idle deducted) is regressed on the VM's CPU utilization without
// intercept. The host's VM set must contain at least one VM of every
// catalog type. The host's running set and clock are modified.
func Train(host *hypervisor.Host, opts TrainOptions) (*PowerModel, error) {
	ticks := opts.Ticks
	if ticks <= 0 {
		ticks = 120
	}
	set := host.Set()
	// Pick one representative VM per type.
	repr := make(map[vm.TypeID]vm.ID, len(set.Catalog()))
	for i := 0; i < set.Len(); i++ {
		v, err := set.VM(vm.ID(i))
		if err != nil {
			return nil, err
		}
		if _, ok := repr[v.Type]; !ok {
			repr[v.Type] = v.ID
		}
	}
	model := &PowerModel{CoefByType: make(map[vm.TypeID]float64, len(repr))}
	for t := vm.TypeID(0); int(t) < len(set.Catalog()); t++ {
		id, ok := repr[t]
		if !ok {
			return nil, fmt.Errorf("baseline: no VM of type %d in the host set", t)
		}
		coef, err := trainOne(host, id, ticks, opts.Seed+int64(t)*7919)
		if err != nil {
			return nil, fmt.Errorf("baseline: training type %d: %w", t, err)
		}
		model.CoefByType[t] = coef
	}
	host.SetAll(false)
	return model, nil
}

func trainOne(host *hypervisor.Host, id vm.ID, ticks int, seed int64) (float64, error) {
	if err := host.Attach(id, workload.Synthetic{Seed: seed}); err != nil {
		return 0, err
	}
	host.SetAll(false)
	if err := host.Start(id); err != nil {
		return 0, err
	}
	var sumUP, sumUU float64
	for i := 0; i < ticks; i++ {
		host.Advance(1)
		snap := host.Collect()
		u := snap.States[int(id)][vm.CPU]
		p, err := host.DynamicPowerFor(snap.Running, snap.States)
		if err != nil {
			return 0, err
		}
		sumUP += u * p
		sumUU += u * u
	}
	if sumUU == 0 {
		return 0, errors.New("baseline: training workload never exercised the CPU")
	}
	return sumUP / sumUU, nil
}

// MarginalAllocation allocates power by activation order: VM i's share is
// v(S_i ∪ {i}) − v(S_i) where S_i is the set activated before it. This is
// the "ground truth" rule prior work trains against; Table III shows it is
// efficient but unfair (order-dependent).
func MarginalAllocation(order []vm.ID, worth func(vm.Coalition) (float64, error)) ([]float64, error) {
	if worth == nil {
		return nil, errors.New("baseline: nil worth function")
	}
	alloc := make([]float64, len(order))
	prefix := vm.EmptyCoalition
	prev, err := worth(prefix)
	if err != nil {
		return nil, err
	}
	seen := make(map[vm.ID]bool, len(order))
	for pos, id := range order {
		if seen[id] {
			return nil, fmt.Errorf("baseline: duplicate VM %d in activation order", id)
		}
		seen[id] = true
		prefix = prefix.With(id)
		cur, err := worth(prefix)
		if err != nil {
			return nil, err
		}
		alloc[pos] = cur - prev
		prev = cur
	}
	return alloc, nil
}

// Proportional rescales the measured aggregated power across the members
// of mask in proportion to their power-model estimates — the paper's
// "resource usage-based allocation", which is efficient by construction
// but inherits the power model's proportions (Fig. 12). Weights that sum
// to zero (all members idle) yield an all-zero allocation.
func Proportional(set *vm.Set, mask vm.Coalition, states []vm.State, model *PowerModel, measuredPower float64) ([]float64, error) {
	if model == nil {
		return nil, errors.New("baseline: nil power model")
	}
	weights, err := model.Estimate(set, mask, states)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]float64, set.Len())
	if sum == 0 {
		return out, nil
	}
	for i, w := range weights {
		out[i] = measuredPower * w / sum
	}
	return out, nil
}

// FitWholeMachine trains the integrated whole-machine model of Fig. 3:
// P = a·(Σ CPU) + idle, regressing measured total power on the summed CPU
// utilization with an intercept. It returns (a, idle).
func FitWholeMachine(totalCPU, power []float64) (a, idle float64, err error) {
	if len(totalCPU) != len(power) {
		return 0, 0, fmt.Errorf("baseline: %d cpu samples vs %d power samples", len(totalCPU), len(power))
	}
	if len(totalCPU) < 2 {
		return 0, 0, errors.New("baseline: need >= 2 samples")
	}
	rows := make([][]float64, len(totalCPU))
	for i, u := range totalCPU {
		rows[i] = []float64{u, 1}
	}
	mat, err := linalg.MatrixFromRows(rows)
	if err != nil {
		return 0, 0, err
	}
	x, err := linalg.LeastSquares(mat, linalg.Vector(power), 1e-9)
	if err != nil {
		return 0, 0, fmt.Errorf("baseline: whole-machine fit: %w", err)
	}
	return x[0], x[1], nil
}
