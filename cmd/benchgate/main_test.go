package main

import (
	"bytes"
	"regexp"
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
		{Name: "BenchmarkServeLive/allocation/p99", NsPerOp: 900_000},
		{Name: "BenchmarkServeLive/tick/p99", NsPerOp: 5_400_000},
	}
}

func defaultCfg(t *testing.T) gateConfig {
	t.Helper()
	cfg := gateConfig{
		tolerance:     0.15,
		liveTolerance: 0.60,
		allocSlack:    2,
		minNsDelta:    500,
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

// TestGateLiveToleranceLooser: a +40% p99 on a live arm passes (inside
// the 60% live tolerance) while the same swing on EstimateTick fails.
func TestGateLiveToleranceLooser(t *testing.T) {
	fresh := trajectory()
	for i := range fresh {
		if fresh[i].Name == "BenchmarkServeLive/allocation/p99" {
			fresh[i].NsPerOp *= 1.40
		}
	}
	var out bytes.Buffer
	if !runGate(trajectory(), fresh, defaultCfg(t), &out) {
		t.Fatalf("+40%% on a live arm should be inside the 60%% live tolerance:\n%s", out.String())
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
		if !strings.HasPrefix(r.Name, "BenchmarkServeLive/") {
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
