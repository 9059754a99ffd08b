package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func fptr(v float64) *float64 { return &v }

// trajectory builds a baseline covering every default headline family.
func trajectory() []Result {
	return []Result{
		{Name: "BenchmarkEstimateTick/n=16/steady/plan=true", NsPerOp: 5_102_471, AllocsPerOp: fptr(29)},
		{Name: "BenchmarkEstimateTick/n=16/alldirty/plan=true", NsPerOp: 15_043_446, AllocsPerOp: fptr(29)},
		{Name: "BenchmarkEstimateTick/sym/n=64/r=3/steady", NsPerOp: 401_000, AllocsPerOp: fptr(139)},
		{Name: "BenchmarkEstimateTick/sym/n=200/r=6/alldirty", NsPerOp: 2_900_000, AllocsPerOp: fptr(139)},
		{Name: "BenchmarkServeCached/allocation", NsPerOp: 1_800, AllocsPerOp: fptr(0)},
		{Name: "BenchmarkServeCached/status", NsPerOp: 1_900, AllocsPerOp: fptr(0)},
	}
}

func defaultCfg(t *testing.T) gateConfig {
	t.Helper()
	cfg := gateConfig{
		tolerance:  0.15,
		allocSlack: 2,
		minNsDelta: 500,
	}
	for _, p := range defaultHeadlines {
		cfg.headlines = append(cfg.headlines, regexp.MustCompile(p))
	}
	return cfg
}

// TestGatePassesOnIdenticalTrajectory: the committed snapshot compared
// against itself must pass — the CI steady state.
func TestGatePassesOnIdenticalTrajectory(t *testing.T) {
	var out bytes.Buffer
	if !runGate(trajectory(), trajectory(), defaultCfg(t), &out) {
		t.Fatalf("identical trajectory failed the gate:\n%s", out.String())
	}
}

// TestGateFailsOnInjectedRegression: a deliberate >15% ns/op slowdown
// in one headline bench must fail the gate — the acceptance scenario.
func TestGateFailsOnInjectedRegression(t *testing.T) {
	fresh := trajectory()
	for i := range fresh {
		if fresh[i].Name == "BenchmarkEstimateTick/n=16/steady/plan=true" {
			fresh[i].NsPerOp *= 1.20 // +20%, over the 15% tolerance
		}
	}
	var out bytes.Buffer
	if runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("injected +20%% regression passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL BenchmarkEstimateTick/n=16/steady/plan=true") {
		t.Fatalf("failure not attributed to the regressed bench:\n%s", out.String())
	}
}

// TestGateFailsOnAllocRegression: the zero-alloc serving pin — allocs
// creeping past the absolute slack fails even when ns/op is fine.
func TestGateFailsOnAllocRegression(t *testing.T) {
	fresh := trajectory()
	for i := range fresh {
		if fresh[i].Name == "BenchmarkServeCached/allocation" {
			fresh[i].AllocsPerOp = fptr(3) // 0 -> 3, over the slack of 2
		}
	}
	var out bytes.Buffer
	if runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("alloc regression 0->3 passed the gate:\n%s", out.String())
	}
}

// TestGateAllowsSmallAllocJitter: 0 -> 2 allocs is within the absolute
// slack (map growth across benchtime) and must not fail.
func TestGateAllowsSmallAllocJitter(t *testing.T) {
	fresh := trajectory()
	for i := range fresh {
		if fresh[i].Name == "BenchmarkServeCached/allocation" {
			fresh[i].AllocsPerOp = fptr(2)
		}
	}
	var out bytes.Buffer
	if !runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("in-slack alloc jitter failed the gate:\n%s", out.String())
	}
}

// TestGateComparesMedianOfRows: with -count 3 each arm is listed three
// times and the gate compares the rows' median. One stalled iteration
// (294.8 µs against a 34.6 µs baseline, next to 8.9 and 7.7 µs) passes
// in any order; three slow rows fail, and so does a missing arm.
func TestGateComparesMedianOfRows(t *testing.T) {
	const arm = "BenchmarkEstimateTick/sym/n=64/r=3/steady"
	base := []Result{{Name: arm, NsPerOp: 34_600, AllocsPerOp: fptr(2)}}
	cfg := defaultCfg(t)
	cfg.headlines = []*regexp.Regexp{regexp.MustCompile(`^BenchmarkEstimateTick/sym/`)}
	rows := func(ns ...float64) []Result {
		var out []Result
		for _, v := range ns {
			out = append(out, Result{Name: arm + "-2", NsPerOp: v, AllocsPerOp: fptr(2)})
		}
		return out
	}
	for _, order := range [][]float64{
		{294_800, 8_900, 7_700}, {294_800, 7_700, 8_900}, {8_900, 294_800, 7_700},
		{8_900, 7_700, 294_800}, {7_700, 294_800, 8_900}, {7_700, 8_900, 294_800},
	} {
		var out bytes.Buffer
		if !runGate(base, rows(order...), cfg, &out) {
			t.Fatalf("rows %v failed the gate:\n%s", order, out.String())
		}
	}
	var out bytes.Buffer
	if runGate(base, rows(69_200, 69_200, 69_200), cfg, &out) {
		t.Fatalf("three rows at 2x the baseline passed the gate:\n%s", out.String())
	}
	out.Reset()
	if runGate(base, nil, cfg, &out) || !strings.Contains(out.String(), "missing from fresh") {
		t.Fatalf("a missing arm passed the gate:\n%s", out.String())
	}
	// allocs/op is a median too: one row's extra allocations pass, a
	// majority's fail.
	slow := rows(8_000, 8_000, 8_000)
	slow[0].AllocsPerOp = fptr(40)
	out.Reset()
	if !runGate(base, slow, cfg, &out) {
		t.Fatalf("one row's allocations failed the gate:\n%s", out.String())
	}
	slow[1].AllocsPerOp = fptr(40)
	out.Reset()
	if runGate(base, slow, cfg, &out) {
		t.Fatalf("two of three rows' allocations passed the gate:\n%s", out.String())
	}
}

// TestGateFailsOnMissingHeadline: deleting a gated bench must fail —
// otherwise removing the benchmark silently un-gates its regression.
func TestGateFailsOnMissingHeadline(t *testing.T) {
	var fresh []Result
	for _, r := range trajectory() {
		if r.Name != "BenchmarkEstimateTick/n=16/alldirty/plan=true" {
			fresh = append(fresh, r)
		}
	}
	var out bytes.Buffer
	if runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("missing headline bench passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing from fresh") {
		t.Fatalf("missing bench not reported:\n%s", out.String())
	}
}

// TestGateIgnoresTinyNsJitter: a 30% swing on a 1.8µs bench is under
// the absolute -min-ns-delta floor and must not fail.
func TestGateIgnoresTinyNsJitter(t *testing.T) {
	fresh := trajectory()
	for i := range fresh {
		if fresh[i].Name == "BenchmarkServeCached/allocation" {
			fresh[i].NsPerOp = 2_300 // +28% but only +500ns absolute
		}
	}
	var out bytes.Buffer
	if !runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("sub-delta ns jitter failed the gate:\n%s", out.String())
	}
}

// TestGateImprovementsPass: getting faster is never a failure.
func TestGateImprovementsPass(t *testing.T) {
	fresh := trajectory()
	for i := range fresh {
		fresh[i].NsPerOp *= 0.5
	}
	var out bytes.Buffer
	if !runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("across-the-board speedup failed the gate:\n%s", out.String())
	}
}

// TestNormalizeStripsGOMAXPROCSSuffix: multi-core CI runners append -N
// to bench names; identity must survive the machine change.
func TestNormalizeStripsGOMAXPROCSSuffix(t *testing.T) {
	if got := normalize("BenchmarkMonteCarloParallel/parallel=all-8"); got != "BenchmarkMonteCarloParallel/parallel=all" {
		t.Fatalf("normalize = %q", got)
	}
	if got := normalize("BenchmarkEstimateTick/n=16/steady/plan=true"); got != "BenchmarkEstimateTick/n=16/steady/plan=true" {
		t.Fatalf("suffix-free name mangled: %q", got)
	}
	// Cross-machine match end to end: suffixed fresh vs bare baseline.
	fresh := trajectory()
	for i := range fresh {
		fresh[i].Name += "-8"
	}
	var out bytes.Buffer
	if !runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("suffixed fresh names failed to match bare baseline:\n%s", out.String())
	}
}

// TestGateNewBenchFamilyIsNote: a headline pattern matching only fresh
// results (a brand-new bench family) is a note, not a failure — it
// starts gating once the baseline is re-snapshotted.
func TestGateNewBenchFamilyIsNote(t *testing.T) {
	var base []Result
	for _, r := range trajectory() {
		if !strings.HasPrefix(r.Name, "BenchmarkServeCached/") {
			base = append(base, r)
		}
	}
	var out bytes.Buffer
	if !runGate(base, trajectory(), defaultCfg(t), &out) {
		t.Fatalf("new bench family caused failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "not in baseline yet") {
		t.Fatalf("new family not noted:\n%s", out.String())
	}
}

// TestGateFailsOnDeadPattern: a pattern matching nothing anywhere is a
// config error, not a silent pass.
func TestGateFailsOnDeadPattern(t *testing.T) {
	cfg := defaultCfg(t)
	cfg.headlines = []*regexp.Regexp{regexp.MustCompile(`^BenchmarkDoesNotExist$`)}
	var out bytes.Buffer
	if runGate(trajectory(), trajectory(), cfg, &out) {
		t.Fatalf("dead headline pattern passed the gate:\n%s", out.String())
	}
}

// TestDefaultHeadlinesMatchCommittedBaseline: every built-in headline
// pattern gates at least one entry of each committed BENCH_*.json, so a
// headline whose baseline rows were deleted fails here, not only in
// `make bench-gate`.
func TestDefaultHeadlinesMatchCommittedBaseline(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json baseline at the repository root")
	}
	for _, path := range paths {
		baseline, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		base := index(baseline)
		for _, p := range defaultHeadlines {
			re := regexp.MustCompile(p)
			matched := false
			for name := range base {
				if re.MatchString(name) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: headline %s matches no entry", filepath.Base(path), p)
			}
		}
	}
}

// TestGateOrderIsStable: the verdict lines of one headline come out in
// name order on every run, whatever order the baseline lists them in and
// however its index map iterates.
func TestGateOrderIsStable(t *testing.T) {
	arms := []string{"status", "allocation_since", "energy", "history", "allocation", "metrics"}
	var base []Result
	for _, a := range arms {
		base = append(base, Result{Name: "BenchmarkServeCached/" + a + "-2", NsPerOp: 30, AllocsPerOp: fptr(0)})
	}
	fresh := append([]Result(nil), base...)
	fresh[2].AllocsPerOp = fptr(5) // energy regresses: a FAIL line among the ok ones
	cfg := defaultCfg(t)
	cfg.headlines = []*regexp.Regexp{regexp.MustCompile(`^BenchmarkServeCached/`)}
	var first string
	for run := 0; run < 20; run++ {
		var out bytes.Buffer
		runGate(base, fresh, cfg, &out)
		if run == 0 {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", run, out.String(), first)
		}
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		name, _, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, "FAIL"), "ok")), ":")
		names = append(names, name)
	}
	if len(names) != len(arms) || !sort.StringsAreSorted(names) {
		t.Fatalf("verdicts not one per arm in name order:\n%s", first)
	}
}
