package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"vmpower/internal/faults"
	"vmpower/internal/meter"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// trainedRig calibrates the shared rig, attaches workloads and boots
// every VM, returning the estimator ready for online ticks.
func trainedRig(t *testing.T, cfg Config) *Estimator {
	t.Helper()
	host, est := testRig(t, cfg)
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < host.Set().Len(); i++ {
		if err := host.Attach(vm.ID(i), workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.GrandCoalition(host.Set().Len()))
	return est
}

func step(t *testing.T, est *Estimator) *Allocation {
	t.Helper()
	est.Host().Advance(1)
	alloc, err := est.EstimateTick()
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

func TestPeakPowerCalibrated(t *testing.T) {
	est := trainedRig(t, Config{Seed: 3})
	if est.PeakPower() <= est.IdlePower() {
		t.Fatalf("peak %g must exceed idle %g", est.PeakPower(), est.IdlePower())
	}
}

func TestHoldoverServesDegradedThenErrMeterLost(t *testing.T) {
	est := trainedRig(t, Config{Seed: 5, HoldoverTicks: 3})
	fresh := step(t, est)
	if fresh.Degraded {
		t.Fatalf("clean tick flagged degraded: %+v", fresh)
	}

	// Kill the meter: every read drops.
	if err := est.SetMeter(meterFunc(func() (meter.Sample, error) {
		return meter.Sample{}, meter.ErrDropout
	})); err != nil {
		t.Fatal(err)
	}
	for age := 1; age <= 3; age++ {
		alloc := step(t, est)
		if !alloc.Degraded {
			t.Fatalf("tick at age %d not degraded", age)
		}
		if alloc.HoldoverAgeTicks != age {
			t.Fatalf("age = %d, want %d", alloc.HoldoverAgeTicks, age)
		}
		if !strings.Contains(alloc.DegradedReason, "holdover") {
			t.Fatalf("reason %q", alloc.DegradedReason)
		}
		if alloc.MeasuredPower != fresh.MeasuredPower {
			t.Fatalf("holdover measured %g, want last good %g", alloc.MeasuredPower, fresh.MeasuredPower)
		}
		// Degraded ticks still satisfy Efficiency against the held power.
		var sum float64
		for _, p := range alloc.PerVM {
			sum += p
		}
		if math.Abs(sum-alloc.DynamicPower) > 1e-9 {
			t.Fatalf("degraded tick inefficient: sum %g vs dyn %g", sum, alloc.DynamicPower)
		}
	}

	// Past the bound: terminal.
	est.Host().Advance(1)
	if _, err := est.EstimateTick(); !errors.Is(err, ErrMeterLost) {
		t.Fatalf("want ErrMeterLost, got %v", err)
	}
}

func TestHoldoverDisabled(t *testing.T) {
	est := trainedRig(t, Config{Seed: 5, HoldoverTicks: -1})
	step(t, est)
	if err := est.SetMeter(meterFunc(func() (meter.Sample, error) {
		return meter.Sample{}, meter.ErrDropout
	})); err != nil {
		t.Fatal(err)
	}
	est.Host().Advance(1)
	if _, err := est.EstimateTick(); !errors.Is(err, ErrMeterLost) {
		t.Fatalf("want ErrMeterLost with holdover disabled, got %v", err)
	}
}

func TestNonDropoutMeterErrorDegrades(t *testing.T) {
	// A transport failure (e.g. serial.ErrCorruptStream) must degrade to
	// holdover, not kill the tick.
	est := trainedRig(t, Config{Seed: 7})
	step(t, est)
	boom := errors.New("serial: stream corrupt")
	if err := est.SetMeter(meterFunc(func() (meter.Sample, error) {
		return meter.Sample{}, boom
	})); err != nil {
		t.Fatal(err)
	}
	alloc := step(t, est)
	if !alloc.Degraded || !strings.Contains(alloc.DegradedReason, "stream corrupt") {
		t.Fatalf("want degraded with cause, got %+v", alloc)
	}
}

func TestPlausibilityGateRejectsSpikesAndNaN(t *testing.T) {
	est := trainedRig(t, Config{Seed: 11})
	fresh := step(t, est)

	// A meter that spikes 10x once, then recovers: the tick must reject
	// the spike, retry, and stay fresh.
	calls := 0
	if err := est.SetMeter(meterFunc(func() (meter.Sample, error) {
		calls++
		if calls == 1 {
			return meter.Sample{Power: fresh.MeasuredPower * 10}, nil
		}
		if calls == 2 {
			return meter.Sample{Power: math.NaN()}, nil
		}
		return meter.Sample{Power: fresh.MeasuredPower}, nil
	})); err != nil {
		t.Fatal(err)
	}
	alloc := step(t, est)
	if alloc.Degraded {
		t.Fatalf("recovered tick flagged degraded: %+v", alloc)
	}
	if alloc.RejectedSamples != 2 {
		t.Fatalf("rejected %d samples, want 2", alloc.RejectedSamples)
	}
	if alloc.MeasuredPower != fresh.MeasuredPower {
		t.Fatalf("measured %g, want %g", alloc.MeasuredPower, fresh.MeasuredPower)
	}
}

func TestStuckAtDetection(t *testing.T) {
	est := trainedRig(t, Config{Seed: 13, StuckThreshold: 3, HoldoverTicks: 20})
	fresh := step(t, est)

	// Stick at a value distinct from the last accepted reading so the
	// identical-run counter starts fresh at the first stuck tick.
	stuck := fresh.MeasuredPower + 1
	if err := est.SetMeter(meterFunc(func() (meter.Sample, error) {
		return meter.Sample{Power: stuck}, nil
	})); err != nil {
		t.Fatal(err)
	}
	// Reads 1 and 2 of the stuck value are accepted (run below the
	// threshold); from the third identical reading on, every read is
	// rejected and the tick holds over.
	a1 := step(t, est)
	if a1.Degraded {
		t.Fatalf("first stuck tick already degraded: %+v", a1)
	}
	a2 := step(t, est)
	if a2.Degraded {
		t.Fatalf("second stuck tick already degraded: %+v", a2)
	}
	a3 := step(t, est)
	if !a3.Degraded || !strings.Contains(a3.DegradedReason, "stuck-at") {
		t.Fatalf("third stuck tick not flagged: %+v", a3)
	}
	if a3.RejectedSamples == 0 {
		t.Fatal("stuck readings not counted as rejected")
	}
}

func TestPeakPowerPersistsThroughModel(t *testing.T) {
	est := trainedRig(t, Config{Seed: 23})
	var buf strings.Builder
	if err := est.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	_, est2 := testRig(t, Config{Seed: 23})
	if err := est2.LoadModel(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if est2.PeakPower() != est.PeakPower() {
		t.Fatalf("peak %g, want %g", est2.PeakPower(), est.PeakPower())
	}

	// A legacy model without peak_power loads with the band disabled.
	legacy := `{"idle_power": 100, "model": ` + string(exportModel(t, est)) + `}`
	_, est3 := testRig(t, Config{Seed: 23})
	if err := est3.LoadModel(strings.NewReader(legacy)); err != nil {
		t.Fatal(err)
	}
	if est3.PeakPower() != 0 {
		t.Fatalf("legacy peak %g, want 0", est3.PeakPower())
	}
}

// exportModel extracts the raw approximator model JSON for hand-built
// savedModel envelopes.
func exportModel(t *testing.T, est *Estimator) []byte {
	t.Helper()
	var buf strings.Builder
	if err := est.approx.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

func TestFaultsMeterEndToEnd(t *testing.T) {
	// Wire a faults.Meter over the rig's perfect meter: iid dropouts well
	// under the retry budget never degrade a tick; a scripted dropout
	// episode longer than the budget degrades exactly its ticks.
	host, est := testRig(t, Config{Seed: 29, MeterRetries: 2, HoldoverTicks: 10})
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < host.Set().Len(); i++ {
		if err := host.Attach(vm.ID(i), workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.GrandCoalition(host.Set().Len()))

	fm, err := faults.Wrap(est.m, faults.Options{
		Seed:     29,
		Episodes: []faults.Episode{{Start: 5, Len: 3, Kind: faults.Dropout}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.SetMeter(fm); err != nil {
		t.Fatal(err)
	}
	fm.SetArmed(true)

	for tick := 0; tick < 12; tick++ {
		alloc := step(t, est)
		inEpisode := tick >= 5 && tick < 8
		if alloc.Degraded != inEpisode {
			t.Fatalf("tick %d degraded=%v, want %v", tick, alloc.Degraded, inEpisode)
		}
		fm.NextTick()
	}
	if c := fm.Injected(); c.Dropouts == 0 {
		t.Fatalf("no dropouts injected: %+v", c)
	}
}
