package vmpower

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"vmpower/internal/core"
)

func TestRecordAndReplayFacade(t *testing.T) {
	sys, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunWorkload("web", "gcc", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunWorkload("db", "omnetpp", 2); err != nil {
		t.Fatal(err)
	}
	recordAndReplay(t, sys)

	// Three same-type VMs on one constant trace form one group of the
	// exact tier, and their replays must be served the same way. Every VM
	// runs a constant trace and the meter is noisy, so only the grand
	// coalition's worth moves from tick to tick.
	cfg := testConfig()
	cfg.MeterNoise = 0.25
	cfg.VMs = []VMSpec{
		{Name: "s1", Type: Small},
		{Name: "s2", Type: Small},
		{Name: "s3", Type: Small},
		{Name: "db", Type: Medium},
	}
	sym, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sym.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2", "s3"} {
		if err := sym.RunWorkloadTrace(name, "steady", strings.NewReader("0.5,0.2,0.1\n"), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := sym.RunWorkloadTrace("db", "steady-db", strings.NewReader("0.8,0.4,0.2\n"), true); err != nil {
		t.Fatal(err)
	}
	for tick, tier := range recordAndReplay(t, sym) {
		if tier != core.TierExact {
			t.Fatalf("tick %d: live tier %s, want %s", tick, tier, core.TierExact)
		}
	}

	// 24 Small VMs on distinct SPEC traces span more count vectors than
	// the exact budget, but the correction search is pruned at every
	// combination's root, so every tick is served exactly.
	cfg = testConfig()
	cfg.MeterNoise = 0.25
	cfg.VMs = nil
	for i := 0; i < 24; i++ {
		cfg.VMs = append(cfg.VMs, VMSpec{Name: fmt.Sprintf("s%02d", i), Type: Small})
	}
	spec, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Calibrate(); err != nil {
		t.Fatal(err)
	}
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	for i, name := range spec.VMNames() {
		if err := spec.RunWorkload(name, suite[i%len(suite)], int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for tick, tier := range recordAndReplay(t, spec) {
		if tier != core.TierExact {
			t.Fatalf("tick %d: live tier %s, want %s", tick, tier, core.TierExact)
		}
	}

	// On distinct synthetic streams the search runs past its node cap,
	// so every tick is sampled by Monte Carlo. The estimate is a pure
	// function of the recorded inputs and the per-tick seed, so replay
	// re-derives the bills bit for bit.
	mc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i, name := range mc.VMNames() {
		if err := mc.RunWorkload(name, "synthetic", int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for tick, tier := range recordAndReplay(t, mc) {
		if tier != core.TierMonteCarlo {
			t.Fatalf("tick %d: live tier %s, want %s", tick, tier, core.TierMonteCarlo)
		}
	}
}

// recordAndReplay records six live ticks of sys, replays the trace and
// requires every replayed tick to reproduce the live one: the same solver
// tier and the same shares bit for bit. It returns the live tiers.
func recordAndReplay(t *testing.T, sys *System) []string {
	t.Helper()
	var trace bytes.Buffer
	if err := sys.StartRecording(&trace); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartRecording(&trace); err == nil {
		t.Fatal("want already-recording error")
	}
	var livePower []map[string]float64
	var liveTiers []string
	const ticks = 6
	if err := sys.Run(ticks, func(a *Allocation) bool {
		livePower = append(livePower, a.Shares())
		liveTiers = append(liveTiers, a.inner.Prov.Tier)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.StopRecording(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StopRecording(); err != nil {
		t.Fatal(err) // idempotent
	}
	if trace.Len() == 0 {
		t.Fatal("empty trace")
	}
	if lines := strings.Count(trace.String(), "\n"); lines != ticks {
		t.Fatalf("trace has %d lines, want %d", lines, ticks)
	}

	idx := 0
	if err := sys.Replay(bytes.NewReader(trace.Bytes()), func(a *Allocation) bool {
		if got := a.inner.Prov.Tier; got != liveTiers[idx] {
			t.Fatalf("tick %d: replay tier %s vs live %s", idx, got, liveTiers[idx])
		}
		for name, want := range livePower[idx] {
			if got := a.Watts(name); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tick %d %s: replay %.17g vs live %.17g", idx, name, got, want)
			}
		}
		idx++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if idx != ticks {
		t.Fatalf("replayed %d ticks", idx)
	}
	return liveTiers
}

func TestSaveLoadCalibrationFacade(t *testing.T) {
	sys, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveCalibration(&bytes.Buffer{}); err == nil {
		t.Fatal("uncalibrated save must fail")
	}
	if err := sys.Calibrate(); err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if err := sys.SaveCalibration(&model); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadCalibration(bytes.NewReader(model.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !fresh.Calibrated() {
		t.Fatal("loaded system must be calibrated")
	}
	if err := fresh.RunWorkload("web", "floatpoint", 1); err != nil {
		t.Fatal(err)
	}
	if err := fresh.RunWorkload("worker", "floatpoint", 2); err != nil {
		t.Fatal(err)
	}
	alloc, err := fresh.Step()
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.Watts("web"); math.Abs(got-10) > 1.5 {
		t.Fatalf("reloaded system share = %g, want ~10", got)
	}
}

func TestReplayFacadeErrors(t *testing.T) {
	sys, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if err := sys.StartRecording(nil); err == nil {
		t.Fatal("want nil-writer error")
	}
	if err := sys.Replay(strings.NewReader("garbage\n"), nil); err == nil {
		t.Fatal("want corrupt-trace error")
	}
	// A trace with the wrong VM count fails.
	bad := `{"tick":1,"coalition":1,"states":[[1,0,0]],"power":150}` + "\n"
	if err := sys.Replay(strings.NewReader(bad), nil); err == nil {
		t.Fatal("want vm-count error")
	}
}
