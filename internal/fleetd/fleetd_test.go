package fleetd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vmpower/internal/faults"
	"vmpower/internal/fleet"
	"vmpower/internal/obs"
)

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

// smallFleet is a clean 2-host pool: four xlarge VMs fill host 0, one
// small VM lands on host 1.
func smallFleet(t *testing.T) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Hosts:            2,
		Seed:             1,
		MeterNoise:       0,
		CalibrationTicks: 40,
		MeterRetries:     2,
		HoldoverTicks:    3,
	}, []fleet.VMRequest{
		{Name: "a1", Tenant: "acme", Type: 3, Workload: "gcc", WorkloadSeed: 11},
		{Name: "a2", Tenant: "acme", Type: 3, Workload: "sjeng", WorkloadSeed: 12},
		{Name: "a3", Tenant: "acme", Type: 3, Workload: "namd", WorkloadSeed: 13},
		{Name: "a4", Tenant: "acme", Type: 3, Workload: "wrf", WorkloadSeed: 14},
		{Name: "b1", Tenant: "edu-lab", Type: 0, Workload: "gcc", WorkloadSeed: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEndpoints(t *testing.T) {
	f := smallFleet(t)
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(obs.NewRegistry(), obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Minute)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before the first tick: no allocation yet, healthz "starting".
	var e errorJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &e); code != http.StatusNotFound {
		t.Fatalf("allocation before first tick = %d, want 404", code)
	}
	var h HealthJSON
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "starting" {
		t.Fatalf("healthz before first tick = %d %q, want 200 starting", code, h.Status)
	}

	const ticks = 5
	for i := 0; i < ticks; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
	}

	var st StatusJSON
	if code := getJSON(t, ts, "/api/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if st.Hosts != 2 || st.Ticks != ticks || st.Degraded {
		t.Fatalf("status %+v", st)
	}
	if len(st.VMs) != 5 || len(st.Tenants) != 2 || len(st.HostStates) != 2 {
		t.Fatalf("status shape %+v", st)
	}

	var tick TickJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &tick); code != http.StatusOK {
		t.Fatalf("allocation = %d", code)
	}
	if tick.Tick != ticks || len(tick.PerVM) != 5 || len(tick.Hosts) != 2 {
		t.Fatalf("allocation %+v", tick)
	}
	var sum float64
	for _, w := range tick.PerVM {
		sum += w
	}
	if math.Abs(sum-tick.DynamicWatts) > 1e-9 {
		t.Fatalf("fleet efficiency violated: sum %g vs dyn %g", sum, tick.DynamicWatts)
	}

	var energy EnergyJSON
	if code := getJSON(t, ts, "/api/v1/energy", &energy); code != http.StatusOK {
		t.Fatalf("energy = %d", code)
	}
	if energy.Seconds != ticks || energy.PerTenantWh["acme"] <= 0 || energy.TotalWh <= 0 {
		t.Fatalf("energy %+v", energy)
	}
	if energy.DegradedWh != 0 {
		t.Fatalf("clean run accrued degraded energy: %+v", energy)
	}

	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, h.Status)
	}
	if h.HealthyHosts != 2 || len(h.HostReasons) != 0 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestHealthzLostLadder pins the all-hosts-lost rule: /healthz stays a
// 200 "degraded" while any host still accounts, and flips to a 503
// "lost" only when every host is quarantined.
func TestHealthzLostLadder(t *testing.T) {
	f := smallFleet(t)
	// Host 0 dies immediately; host 1 dies 20 ticks later. Probing is
	// still on, but the episodes never end, so no probe readmits.
	dead := func(start int) faults.Options {
		return faults.Options{Seed: 5, Episodes: []faults.Episode{
			{Start: start, Len: 1 << 20, Kind: faults.Dropout},
		}}
	}
	fm0, err := f.InjectFaults(0, dead(0))
	if err != nil {
		t.Fatal(err)
	}
	fm1, err := f.InjectFaults(1, dead(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(obs.NewRegistry(), obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Minute)
	fm0.SetArmed(true)
	fm1.SetArmed(true)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	step := func() *fleet.Tick {
		t.Helper()
		tick, err := srv.Step()
		if err != nil {
			t.Fatal(err)
		}
		fm0.NextTick()
		fm1.NextTick()
		return tick
	}

	// Phase 1: host 0 quarantined, host 1 alive — degraded but 200.
	var tick *fleet.Tick
	for i := 0; i < 10; i++ {
		tick = step()
	}
	if tick.QuarantinedHosts != 1 {
		t.Fatalf("after 10 ticks: %d hosts quarantined, want 1", tick.QuarantinedHosts)
	}
	if _, ok := tick.PerVM["b1"]; !ok {
		t.Fatal("surviving host's VM missing from PerVM")
	}
	var h HealthJSON
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("partial loss: healthz = %d %q, want 200 degraded", code, h.Status)
	}
	if reason, ok := h.HostReasons["0"]; !ok || reason == "" {
		t.Fatalf("partial loss: missing host 0 reason: %+v", h)
	}

	// Phase 2: both hosts quarantined — 503 "lost", but the fleet keeps
	// ticking (Step still succeeds).
	for i := 0; i < 20; i++ {
		tick = step()
	}
	if tick.QuarantinedHosts != 2 {
		t.Fatalf("after 30 ticks: %d hosts quarantined, want 2", tick.QuarantinedHosts)
	}
	if len(tick.PerVM) != 0 || len(tick.Unaccounted) != 5 {
		t.Fatalf("all lost but PerVM=%v Unaccounted=%v", tick.PerVM, tick.Unaccounted)
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "lost" {
		t.Fatalf("total loss: healthz = %d %q, want 503 lost", code, h.Status)
	}
	if len(h.HostReasons) != 2 {
		t.Fatalf("total loss: want reasons for both hosts: %+v", h)
	}
}

// TestEnergyTotalsDeterministic pins that the energy body's totals do
// not depend on map iteration order: built many times from one fleet
// state with several tenants, some with degraded energy, the encoded
// body must be the same bytes every time.
func TestEnergyTotalsDeterministic(t *testing.T) {
	var reqs []fleet.VMRequest
	for i, wl := range []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto", "gcc"} {
		reqs = append(reqs, fleet.VMRequest{
			Name: "vm" + string(rune('a'+i)), Tenant: "tenant-" + string(rune('a'+i)),
			Type: 3, Workload: wl, WorkloadSeed: int64(20 + i),
		})
	}
	f, err := fleet.New(fleet.Config{
		Hosts:            2,
		Seed:             5,
		MeterNoise:       0.05,
		CalibrationTicks: 20,
		MeterRetries:     1,
		HoldoverTicks:    3,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := f.InjectFaults(1, faults.Options{Seed: 3, DropoutProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	fm.SetArmed(true)
	for i := 0; i < 40; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	first := energyJSON(f)
	if len(first.PerTenantWh) != len(reqs) || len(first.DegradedPerTenantWh) < 2 {
		t.Fatalf("%d tenants with energy, %d with degraded energy; want %d and at least 2",
			len(first.PerTenantWh), len(first.DegradedPerTenantWh), len(reqs))
	}
	want, err := encodeJSON(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, err := encodeJSON(energyJSON(f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("build %d:\n%s\nwant\n%s", i, got, want)
		}
	}
}
