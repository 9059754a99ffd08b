package shapley

import (
	"strings"
	"testing"

	"vmpower/internal/obs"
	"vmpower/internal/vm"
)

// testWorth is a simple concave game used across the metrics tests.
func testWorth(s vm.Coalition) float64 {
	size := float64(s.Size())
	return 13*size - 0.4*size*size
}

func TestInstrumentMonteCarloTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	res, err := MonteCarlo(12, testWorth, MCOptions{Permutations: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := metrics()
	if got := m.MCPermutations.Value(); got != uint64(res.Permutations) {
		t.Fatalf("permutations counter = %d, result = %d", got, res.Permutations)
	}
	if se := m.MCStdErr.Value(); se <= 0 {
		t.Fatalf("stderr gauge = %g, want > 0", se)
	}
	if m.SolveMC.Count() != 1 {
		t.Fatalf("mc solve histogram count = %d", m.SolveMC.Count())
	}
}

func TestInstrumentExactPhases(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	if _, err := Exact(8, testWorth); err != nil {
		t.Fatal(err)
	}
	table := make([]float64, 1<<8)
	if err := TabulateParallelInto(table, 8, testWorth, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ExactFromTable(8, table); err != nil {
		t.Fatal(err)
	}
	m := metrics()
	if m.SolveTabulate.Count() != 2 || m.SolveAccumulate.Count() != 2 {
		t.Fatalf("phase counts: tabulate %d, accumulate %d, want 2 each",
			m.SolveTabulate.Count(), m.SolveAccumulate.Count())
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `vmpower_solve_duration_seconds_count{method="tabulate"} 2`) {
		t.Fatalf("missing labelled solve series:\n%s", b.String())
	}
}

// TestUninstrumentedIsIdentical pins that wiring metrics in and out
// never changes solver output (instrumentation is observation only).
func TestUninstrumentedIsIdentical(t *testing.T) {
	Instrument(nil)
	plain, err := MonteCarlo(10, testWorth, MCOptions{Permutations: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	Instrument(obs.NewRegistry())
	defer Instrument(nil)
	inst, err := MonteCarlo(10, testWorth, MCOptions{Permutations: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Phi {
		if plain.Phi[i] != inst.Phi[i] || plain.StdErr[i] != inst.StdErr[i] {
			t.Fatalf("instrumentation changed the estimate at %d", i)
		}
	}
}
