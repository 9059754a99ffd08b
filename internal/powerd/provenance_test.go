package powerd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/faults"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/meter/serial"
	"vmpower/internal/obs"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// TestChaosProvenanceSurface drives the chaos schedule with the auditor
// and provenance surface on, and pins the PR's acceptance claims: zero
// audit violations across the whole run (fresh, holdover and fallback
// ticks alike — every path rescales to the tick's dynamic power), every
// degradation edge journaled exactly once in sequence order, and a
// triggered flight dump whose φ round-trips through JSON bit-identical
// to the allocation the daemon served.
func TestChaosProvenanceSurface(t *testing.T) {
	const ticks = 300
	srv, fm, reg := chaosRig(t,
		faults.Options{
			Seed:        4321,
			DropoutProb: 0.35,
			NaNProb:     0.02,
			SpikeProb:   0.02,
			Episodes: []faults.Episode{
				{Start: 80, Len: 6, Kind: faults.Error, Err: serial.ErrCorruptStream},
				{Start: 150, Len: 5, Kind: faults.Dropout},
				{Start: 200, Len: 12, Kind: faults.StuckAt},
			},
		},
		core.Config{
			OfflineTicksPerCombo: 80, IdleMeasureTicks: 5, Seed: 1,
			MeterRetries: 2, HoldoverTicks: 10, StuckThreshold: 4,
		})
	srv.EnableAudit(core.AuditConfig{DeepEvery: 25})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ground truth: the degradation edges as Step reports them.
	var wantEdges []string
	prevDegraded := false
	var last *core.Allocation
	for tick := 0; tick < ticks; tick++ {
		alloc, err := srv.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if alloc.Degraded != prevDegraded {
			if alloc.Degraded {
				wantEdges = append(wantEdges, "degraded")
			} else {
				wantEdges = append(wantEdges, "recovered")
			}
			prevDegraded = alloc.Degraded
		}
		last = alloc
		fm.NextTick()
	}
	if len(wantEdges) < 2 {
		t.Fatalf("schedule produced %d degradation edges; chaos too tame to test", len(wantEdges))
	}

	// The auditor checked every tick and found nothing: Efficiency holds
	// on fresh and degraded ticks alike.
	if v := reg.Counter("vmpower_audit_checks_total", "").Value(); v != ticks {
		t.Fatalf("audit checks = %d, want %d", v, ticks)
	}
	if v := reg.Counter("vmpower_audit_violations_total", "").Value(); v != 0 {
		t.Fatalf("audit violations = %d, want 0", v)
	}
	if v := reg.Counter("vmpower_audit_deep_checks_total", "").Value(); v == 0 {
		t.Fatal("deep checks never sampled")
	}
	if v := reg.Counter("vmpower_audit_deep_mismatches_total", "").Value(); v != 0 {
		t.Fatalf("deep mismatches = %d, want 0", v)
	}

	// Every degradation edge appears in the journal exactly once, in
	// order, with strictly increasing sequence numbers.
	var page obs.EventsJSON
	if code := getJSON(t, ts, "/api/v1/events?since=0", &page); code != 200 {
		t.Fatalf("events = %d", code)
	}
	var gotEdges []string
	var lastSeq uint64
	for _, ev := range page.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("journal seqs not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case "degraded":
			if ev.Detail == "" {
				t.Fatalf("degraded event without a reason: %+v", ev)
			}
			gotEdges = append(gotEdges, "degraded")
		case "recovered":
			gotEdges = append(gotEdges, "recovered")
		}
	}
	if len(gotEdges) != len(wantEdges) {
		t.Fatalf("journal has %d degradation edges, Step saw %d", len(gotEdges), len(wantEdges))
	}
	for i := range wantEdges {
		if gotEdges[i] != wantEdges[i] {
			t.Fatalf("edge %d: journal %q, Step %q", i, gotEdges[i], wantEdges[i])
		}
	}

	// A triggered dump round-trips through JSON with the served φ intact
	// to the bit.
	var buf bytes.Buffer
	if err := srv.DumpFlight(&buf, "test-trigger"); err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if dump.Reason != "test-trigger" || len(dump.Records) != obs.DefaultFlightCapacity {
		t.Fatalf("dump = %q / %d records, want test-trigger / %d",
			dump.Reason, len(dump.Records), obs.DefaultFlightCapacity)
	}
	newest := dump.Records[len(dump.Records)-1]
	if newest.Tick != last.Tick {
		t.Fatalf("newest record is tick %d, served tick %d", newest.Tick, last.Tick)
	}
	if len(newest.PerVMWatts) != len(last.PerVM) {
		t.Fatalf("record has %d shares, allocation %d", len(newest.PerVMWatts), len(last.PerVM))
	}
	for i := range last.PerVM {
		if math.Float64bits(newest.PerVMWatts[i]) != math.Float64bits(last.PerVM[i]) {
			t.Fatalf("φ[%d] %x != served %x after JSON round-trip",
				i, math.Float64bits(newest.PerVMWatts[i]), math.Float64bits(last.PerVM[i]))
		}
	}
	if newest.Tier == "" {
		t.Fatal("newest record has no tier")
	}

	// The live endpoint serves the same ring.
	var live obs.FlightDump
	if code := getJSON(t, ts, "/debug/flight", &live); code != 200 {
		t.Fatalf("/debug/flight = %d", code)
	}
	if live.Reason != "http" || len(live.Records) != obs.DefaultFlightCapacity {
		t.Fatalf("live dump = %q / %d records", live.Reason, len(live.Records))
	}
}

// TestFlightRecordsMonteCarloStdErr serves a 24-VM host on distinct
// synthetic streams, whose ticks the correction search cannot finish
// under its node cap: each sampled tick's flight record carries the
// tick's largest per-VM standard error. Once four VMs are left running
// the exact tier serves the tick and the record omits the field.
func TestFlightRecordsMonteCarloStdErr(t *testing.T) {
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, vm.MaxPlayers)
	vms := make([]vm.VM, vm.MaxPlayers)
	for i := range vms {
		names[i] = fmt.Sprintf("vm%02d", i)
		vms[i] = vm.VM{Name: names[i]}
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
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
	est, err := core.New(host, m, core.Config{Seed: 3, OfflineTicksPerCombo: 40, IdleMeasureTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	for i := range vms {
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	host.SetAll(true)
	srv, err := New(est, names, 16)
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(obs.NewRegistry(), obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Second)
	newest := func() (obs.FlightRecord, string) {
		t.Helper()
		var buf bytes.Buffer
		if err := srv.DumpFlight(&buf, "test"); err != nil {
			t.Fatal(err)
		}
		var dump struct{ Records []json.RawMessage }
		if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
			t.Fatal(err)
		}
		raw := dump.Records[len(dump.Records)-1]
		var rec obs.FlightRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		return rec, string(raw)
	}
	for tick := 0; tick < 3; tick++ {
		alloc, err := srv.Step()
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := newest()
		if alloc.Prov.Tier != core.TierMonteCarlo || alloc.Prov.MaxStdErrWatts <= 0 || rec.MaxStdErrWatts != alloc.Prov.MaxStdErrWatts {
			t.Fatalf("tick %d: %s tick recorded max StdErr %g W, served %g W", tick, alloc.Prov.Tier, rec.MaxStdErrWatts, alloc.Prov.MaxStdErrWatts)
		}
	}
	for i := 4; i < len(vms); i++ {
		if err := host.Stop(vm.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	alloc, err := srv.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rec, raw := newest(); alloc.Prov.Tier != core.TierExact || rec.MaxStdErrWatts != 0 || strings.Contains(raw, "max_stderr_watts") {
		t.Fatalf("%s tick recorded %s", alloc.Prov.Tier, raw)
	}
}
