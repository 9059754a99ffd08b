package baseline

import (
	"errors"
	"math"
	"slices"
	"testing"

	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/vm"
)

func testHost(t *testing.T) *hypervisor.Host {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "VM1a", Type: 0},
		{Name: "VM1b", Type: 0},
		{Name: "VM2", Type: 1},
		{Name: "VM3", Type: 2},
		{Name: "VM4", Type: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

func TestTrainProducesSublinearCoefficients(t *testing.T) {
	host := testHost(t)
	model, err := Train(host, TrainOptions{Ticks: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.CoefByType) != 4 {
		t.Fatalf("trained %d types", len(model.CoefByType))
	}
	// The 1-vCPU coefficient reflects the lone-thread marginal (~13 W;
	// regression over varying utilization lands slightly above because
	// of the uncore term).
	if a := model.CoefByType[0]; a < 12 || a > 16 {
		t.Fatalf("VM1 coefficient = %g, want ~13-16", a)
	}
	// Coefficients grow with vCPUs but sublinearly (Table IV's shape).
	prev := 0.0
	for typ := vm.TypeID(0); typ < 4; typ++ {
		a := model.CoefByType[typ]
		if a <= prev {
			t.Fatalf("coefficient for type %d (%g) not increasing", typ, a)
		}
		prev = a
	}
	perVCPU1 := model.CoefByType[0] / 1
	perVCPU8 := model.CoefByType[3] / 8
	if perVCPU8 >= perVCPU1 {
		t.Fatalf("per-vCPU power must shrink: %g vs %g", perVCPU8, perVCPU1)
	}
	// Training must leave the host stopped.
	if slices.Contains(host.Running(), true) {
		t.Fatal("Train must stop all VMs")
	}
}

func TestTrainDefaults(t *testing.T) {
	host := testHost(t)
	model, err := Train(host, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(model.CoefByType) != 4 {
		t.Fatal("default training incomplete")
	}
}

func TestEstimate(t *testing.T) {
	host := testHost(t)
	model := &PowerModel{CoefByType: map[vm.TypeID]float64{0: 13, 1: 22, 2: 50, 3: 97}}
	set := host.Set()
	states := []vm.State{
		{vm.CPU: 1}, {vm.CPU: 0.5}, {vm.CPU: 0.5}, {vm.CPU: 0}, {vm.CPU: 0.25},
	}
	per, err := model.Estimate(set, vm.CoalitionOf(0, 1, 4), states)
	if err != nil {
		t.Fatal(err)
	}
	if per[0] != 13 || per[1] != 6.5 || per[4] != 97*0.25 {
		t.Fatalf("Estimate = %v", per)
	}
	if per[2] != 0 || per[3] != 0 {
		t.Fatal("non-members must get 0")
	}
	agg, err := model.AggregateEstimate(set, vm.CoalitionOf(0, 1, 4), states)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg-(13+6.5+24.25)) > 1e-12 {
		t.Fatalf("AggregateEstimate = %g", agg)
	}
	if _, err := model.Estimate(set, vm.CoalitionOf(0), states[:1]); err == nil {
		t.Fatal("want state-count error")
	}
}

func TestEstimateUnknownType(t *testing.T) {
	host := testHost(t)
	model := &PowerModel{CoefByType: map[vm.TypeID]float64{0: 13}}
	states := make([]vm.State, host.Set().Len())
	states[2][vm.CPU] = 1
	if _, err := model.Estimate(host.Set(), vm.CoalitionOf(2), states); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("want ErrUnknownType, got %v", err)
	}
}

func TestMarginalAllocation(t *testing.T) {
	// Table III's worth function: v({i}) = 13, v({0,1}) = 20.
	worth := func(s vm.Coalition) (float64, error) {
		switch s.Size() {
		case 0:
			return 0, nil
		case 1:
			return 13, nil
		default:
			return 20, nil
		}
	}
	alloc, err := MarginalAllocation([]vm.ID{0, 1}, worth)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 13 || alloc[1] != 7 {
		t.Fatalf("MarginalAllocation = %v, want [13 7]", alloc)
	}
	// Swapped order swaps the allocation — the unfairness of Table III.
	alloc, err = MarginalAllocation([]vm.ID{1, 0}, worth)
	if err != nil {
		t.Fatal(err)
	}
	if alloc[0] != 13 || alloc[1] != 7 {
		t.Fatalf("swapped MarginalAllocation = %v", alloc)
	}
	if _, err := MarginalAllocation([]vm.ID{0, 0}, worth); err == nil {
		t.Fatal("want duplicate error")
	}
	if _, err := MarginalAllocation(nil, nil); err == nil {
		t.Fatal("want nil worth error")
	}
}

func TestProportional(t *testing.T) {
	host := testHost(t)
	set := host.Set()
	model := &PowerModel{CoefByType: map[vm.TypeID]float64{0: 10, 1: 20, 2: 40, 3: 80}}
	states := []vm.State{
		{vm.CPU: 1}, {vm.CPU: 1}, {}, {}, {},
	}
	got, err := Proportional(set, vm.CoalitionOf(0, 1), states, model, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Equal weights → equal split of the measured 15 W.
	if math.Abs(got[0]-7.5) > 1e-12 || math.Abs(got[1]-7.5) > 1e-12 {
		t.Fatalf("Proportional = %v", got)
	}
	var sum float64
	for _, p := range got {
		sum += p
	}
	if math.Abs(sum-15) > 1e-12 {
		t.Fatalf("Proportional sum = %g, want 15 (efficiency)", sum)
	}
	// All-idle members: zero weights yield a zero allocation.
	idle := make([]vm.State, set.Len())
	got, err = Proportional(set, vm.CoalitionOf(0, 1), idle, model, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p != 0 {
			t.Fatalf("idle Proportional = %v", got)
		}
	}
	if _, err := Proportional(set, vm.CoalitionOf(0), states, nil, 15); err == nil {
		t.Fatal("want nil-model error")
	}
}

func TestFitWholeMachine(t *testing.T) {
	// Exact line: p = 9.49u + 138.
	var cpu, power []float64
	for i := 0; i <= 20; i++ {
		u := float64(i) / 10
		cpu = append(cpu, u)
		power = append(power, 9.49*u+138)
	}
	a, idle, err := FitWholeMachine(cpu, power)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-9.49) > 1e-9 || math.Abs(idle-138) > 1e-9 {
		t.Fatalf("fit = (%g, %g), want (9.49, 138)", a, idle)
	}
	if _, _, err := FitWholeMachine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, _, err := FitWholeMachine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want too-few-samples error")
	}
}
