package powerd

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func testServer(t testing.TB) (*Server, *hypervisor.Host) {
	t.Helper()
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	set, err := vm.NewSet(vm.PaperCatalog(), []vm.VM{
		{Name: "web", Type: 0}, {Name: "db", Type: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		t.Fatal(err)
	}
	m, err := meter.Perfect(host.PowerSource())
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.New(host, m, core.Config{OfflineTicksPerCombo: 80, IdleMeasureTicks: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(est, []string{"web", "db"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return srv, host
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, 1); err == nil {
		t.Fatal("want nil-estimator error")
	}
	srv, _ := testServer(t)
	if _, err := New(srv.est, []string{"only-one"}, 1); err == nil {
		t.Fatal("want name-count error")
	}
	// Two VMs under one name would share a per_vm_watts key, so one share
	// would drop off the wire while the energy counter billed both to it.
	if _, err := New(srv.est, []string{"web", "web"}, 1); err == nil || !strings.Contains(err.Error(), `duplicate VM name "web"`) {
		t.Fatalf("duplicate names: err %v, want a duplicate-name error", err)
	}
}

func TestStatusEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var status StatusJSON
	if code := getJSON(t, ts, "/api/v1/status", &status); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	if !status.Calibrated {
		t.Fatal("must report calibrated")
	}
	if math.Abs(status.IdleWatts-138) > 0.5 {
		t.Fatalf("idle = %g", status.IdleWatts)
	}
	if len(status.VMs) != 2 || status.VMs[0] != "web" {
		t.Fatalf("VMs = %v", status.VMs)
	}
}

func TestAllocationEndpoint(t *testing.T) {
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before any step: 404.
	if code := getJSON(t, ts, "/api/v1/allocation", nil); code != http.StatusNotFound {
		t.Fatalf("empty allocation code %d", code)
	}

	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0))
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}

	var alloc AllocationJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &alloc); code != http.StatusOK {
		t.Fatalf("allocation code %d", code)
	}
	if alloc.Method != "exact" {
		t.Fatalf("method = %q", alloc.Method)
	}
	if alloc.PerVM["web"] <= 0 {
		t.Fatalf("web watts = %g", alloc.PerVM["web"])
	}
	if alloc.PerVM["db"] != 0 {
		t.Fatalf("stopped db watts = %g", alloc.PerVM["db"])
	}
	if alloc.MeasuredWatts <= alloc.DynamicWatts {
		t.Fatal("measured must include idle")
	}
}

func TestHistoryRingAndQuery(t *testing.T) {
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := host.Attach(0, workload.Synthetic{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0))
	for i := 0; i < 8; i++ { // history cap is 5
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var hist []AllocationJSON
	if code := getJSON(t, ts, "/api/v1/history", &hist); code != http.StatusOK {
		t.Fatalf("history code %d", code)
	}
	if len(hist) != 5 {
		t.Fatalf("history length = %d, want ring cap 5", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Tick <= hist[i-1].Tick {
			t.Fatal("history out of order")
		}
	}
	var last2 []AllocationJSON
	if code := getJSON(t, ts, "/api/v1/history?n=2", &last2); code != http.StatusOK {
		t.Fatal("history?n=2 failed")
	}
	if len(last2) != 2 || last2[1].Tick != hist[4].Tick {
		t.Fatalf("last2 = %+v", last2)
	}
	if code := getJSON(t, ts, "/api/v1/history?n=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n code %d", code)
	}
	if code := getJSON(t, ts, "/api/v1/history?n=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("negative n code %d", code)
	}
}

func TestEnergyEndpoint(t *testing.T) {
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	host.SetCoalition(vm.CoalitionOf(0))
	const steps = 10
	for i := 0; i < steps; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var energy EnergyJSON
	if code := getJSON(t, ts, "/api/v1/energy", &energy); code != http.StatusOK {
		t.Fatalf("energy code %d", code)
	}
	if energy.Seconds != float64(steps) {
		t.Fatalf("Seconds = %g", energy.Seconds)
	}
	// ~13 W for 10 s ≈ 0.036 Wh.
	if energy.PerVMWh["web"] < 0.02 || energy.PerVMWh["web"] > 0.06 {
		t.Fatalf("web energy = %g Wh", energy.PerVMWh["web"])
	}
	if energy.PerVMWh["db"] != 0 {
		t.Fatalf("db energy = %g", energy.PerVMWh["db"])
	}
	if math.Abs(energy.TotalWh-energy.PerVMWh["web"]) > 1e-12 {
		t.Fatal("total must equal the only live VM's energy")
	}
}

// TestEnergyIntervalIntegration is the regression test for the 1 Hz
// assumption the energy counters used to bake in: `energyWs += w` is only
// watt-seconds when a tick covers exactly one second. A daemon stepped at
// 250 ms must integrate watts × 0.25 s per tick — a quarter of the energy
// of the same watt trace at 1 Hz, bit for bit, because 0.25 is a power of
// two so the scaling commutes exactly with every rounding step.
func TestEnergyIntervalIntegration(t *testing.T) {
	run := func(interval time.Duration, steps int) EnergyJSON {
		srv, host := testServer(t)
		if interval != 0 {
			if err := srv.SetInterval(interval); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		// Deterministic workload: both runs see the identical watt trace.
		if err := host.Attach(0, workload.Synthetic{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		host.SetCoalition(vm.CoalitionOf(0))
		for i := 0; i < steps; i++ {
			if _, err := srv.Step(); err != nil {
				t.Fatal(err)
			}
		}
		var energy EnergyJSON
		if code := getJSON(t, ts, "/api/v1/energy", &energy); code != http.StatusOK {
			t.Fatalf("energy code %d", code)
		}
		return energy
	}

	const steps = 12
	oneHz := run(0, steps) // default 1 s interval
	fast := run(250*time.Millisecond, steps)

	if oneHz.Seconds != float64(steps) {
		t.Fatalf("1 Hz Seconds = %g, want %d", oneHz.Seconds, steps)
	}
	if want := float64(steps) * 0.25; fast.Seconds != want {
		t.Fatalf("250 ms Seconds = %g, want %g", fast.Seconds, want)
	}
	for _, name := range []string{"web", "db"} {
		if got, want := fast.PerVMWh[name], oneHz.PerVMWh[name]/4; got != want {
			t.Fatalf("%s at 250 ms = %g Wh, want exactly a quarter of %g Wh", name, got, oneHz.PerVMWh[name])
		}
	}
	if fast.TotalWh != oneHz.TotalWh/4 {
		t.Fatalf("total at 250 ms = %g Wh, want %g/4", fast.TotalWh, oneHz.TotalWh)
	}
	if oneHz.PerVMWh["web"] <= 0 {
		t.Fatal("trace must carry nonzero energy for the ratio to mean anything")
	}
}

func TestSetIntervalValidation(t *testing.T) {
	srv, _ := testServer(t)
	if err := srv.SetInterval(0); err == nil {
		t.Fatal("want non-positive interval error")
	}
	if err := srv.SetInterval(-time.Second); err == nil {
		t.Fatal("want negative interval error")
	}
}

func TestInteractionsEndpoint(t *testing.T) {
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before any tick: 404.
	if code := getJSON(t, ts, "/api/v1/interactions", nil); code != http.StatusNotFound {
		t.Fatalf("pre-tick code %d", code)
	}

	for _, id := range []vm.ID{0, 1} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 1))
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}

	var out InteractionsJSON
	if code := getJSON(t, ts, "/api/v1/interactions", &out); code != http.StatusOK {
		t.Fatalf("interactions code %d", code)
	}
	if len(out.VMs) != 2 || len(out.Watts) != 2 || len(out.Watts[0]) != 2 {
		t.Fatalf("shape = %v / %v", out.VMs, out.Watts)
	}
	// Two fully-busy co-located VMs interfere: negative pair entry,
	// symmetric matrix, zero diagonal.
	if out.Watts[0][1] >= 0 {
		t.Fatalf("pair interaction = %g, want < 0", out.Watts[0][1])
	}
	if out.Watts[0][1] != out.Watts[1][0] {
		t.Fatal("matrix must be symmetric")
	}
	if out.Watts[0][0] != 0 || out.Watts[1][1] != 0 {
		t.Fatal("diagonal must be zero")
	}
}

func TestConcurrentStepAndHTTP(t *testing.T) {
	// Drive Step from one goroutine while hammering every endpoint from
	// several others. Under -race this flushes out unsynchronised state;
	// in any mode it checks the tick-coherent publication contract: a
	// reader must never see the interactions endpoint working from a
	// snapshot newer than the tick counter it also published, and every
	// observed allocation/interaction tick must be one Step actually
	// produced.
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, id := range []vm.ID{0, 1} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 1))

	const steps = 25
	firstTick := make(chan int, 1)
	stepErr := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			alloc, err := srv.Step()
			if err != nil {
				stepErr <- err
				return
			}
			if i == 0 {
				firstTick <- alloc.Tick
			}
		}
	}()
	lo := <-firstTick
	hi := lo + steps - 1

	// fetch is goroutine-safe (no t.Fatal off the test goroutine).
	fetch := func(path string, out any) (int, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, err
			}
		}
		return resp.StatusCode, nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var alloc AllocationJSON
				if code, err := fetch("/api/v1/allocation", &alloc); err != nil || code != http.StatusOK {
					t.Errorf("allocation: code %d, err %v", code, err)
					return
				}
				if alloc.Tick < lo || alloc.Tick > hi {
					t.Errorf("allocation tick %d outside stepped range [%d, %d]", alloc.Tick, lo, hi)
					return
				}
				var ix InteractionsJSON
				if code, err := fetch("/api/v1/interactions", &ix); err != nil || code != http.StatusOK {
					t.Errorf("interactions: code %d, err %v", code, err)
					return
				}
				if ix.Tick < lo || ix.Tick > hi {
					t.Errorf("interactions tick %d outside stepped range [%d, %d]", ix.Tick, lo, hi)
					return
				}
				for _, p := range []string{"/api/v1/energy", "/api/v1/history?n=3", "/api/v1/status"} {
					if _, err := fetch(p, nil); err != nil {
						t.Errorf("%s: %v", p, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done
	select {
	case err := <-stepErr:
		t.Fatal(err)
	default:
	}

	// Quiesced: the published snapshot and allocation must agree on the
	// final tick — the pairing the old two-lock publication could break.
	var alloc AllocationJSON
	getJSON(t, ts, "/api/v1/allocation", &alloc)
	var ix InteractionsJSON
	getJSON(t, ts, "/api/v1/interactions", &ix)
	if alloc.Tick != hi || ix.Tick != hi {
		t.Fatalf("post-quiesce ticks: allocation %d, interactions %d, want %d", alloc.Tick, ix.Tick, hi)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/api/v1/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status code %d", resp.StatusCode)
	}
}
