package main

import (
	"testing"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/fleet"
	"vmpower/internal/scenario"
)

// TestLifecycleProgramNeverRefused plays the generated program on a
// small pool with fleet32's layout (full large hosts, smalls on their
// own host) for three cycles: the fleet must accept every event and
// conserve energy on every tick, and the program must use every verb.
func TestLifecycleProgramNeverRefused(t *testing.T) {
	const ticks = 3*lifecyclePeriod + lifecycleStart + 20
	for _, seed := range []int64{1, 2, 3} {
		f, err := fleet.New(fleet.Config{
			Hosts: 5, Seed: seed, CalibrationTicks: 10, TickInterval: 10 * time.Millisecond,
		}, fleetRequests(seed, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Calibrate(); err != nil {
			t.Fatal(err)
		}
		events, err := lifecycleProgram(f.States(), seed, ticks)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for _, ev := range events {
			kinds[ev.Kind]++
		}
		for _, k := range []string{
			cliutil.ScenarioPowerOn, cliutil.ScenarioPowerOff, cliutil.ScenarioMigrate,
			cliutil.ScenarioHotplug, cliutil.ScenarioRemove, cliutil.ScenarioDrain,
			cliutil.ScenarioUndrain, cliutil.ScenarioAutoscale,
		} {
			if kinds[k] == 0 {
				t.Errorf("seed %d: program has no %s event", seed, k)
			}
		}
		engine, err := scenario.New(f, events, seed)
		if err != nil {
			t.Fatal(err)
		}
		err = engine.Run(ticks, func(tick *fleet.Tick) bool {
			if problems := f.AuditConservation(tick, 0); len(problems) > 0 {
				t.Errorf("seed %d tick %d: %v", seed, tick.Tick, problems)
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		st := engine.Status()
		if st.Refused != 0 || !engine.Done() {
			for _, a := range engine.Log() {
				if a.Err != "" {
					t.Errorf("seed %d tick %d: %s %s refused: %s", seed, a.Tick, a.Op, a.Subject, a.Err)
				}
			}
			t.Fatalf("seed %d: %d refused, done=%v", seed, st.Refused, engine.Done())
		}
	}
}
