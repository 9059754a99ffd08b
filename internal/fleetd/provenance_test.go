package fleetd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/fleet"
	"vmpower/internal/obs"
)

type edge struct{ typ, subject string }

// TestFleetChaosProvenanceSurface runs the fleet chaos schedule with the
// per-host auditor and the provenance surface on, and pins the
// acceptance claims: every quarantine/readmit/degradation transition is
// journaled exactly once per edge in sequence order, the conservation
// cross-check never fires, and the quarantine trigger leaves a dump
// behind on /debug/flight?trigger=last that excludes the quarantined
// host's VMs — exactly as the served rollup does.
func TestFleetChaosProvenanceSurface(t *testing.T) {
	const ticks = 120
	srv, fm, reg, _ := chaosRig(t, 1)
	srv.EnableAudit(core.AuditConfig{DeepEvery: 20})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ground truth: per-host state edges, classified the way the journal
	// classifies them (entering quarantine wins; leaving it is a
	// readmission whatever the next state).
	prev := make([]fleet.HostState, 3)
	var want []edge
	var lastQuarantineTick *fleet.Tick
	for i := 0; i < ticks; i++ {
		tick, err := srv.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		fm.NextTick()
		for h := range tick.Hosts {
			hs := &tick.Hosts[h]
			if hs.State == prev[h] {
				continue
			}
			subject := "host:" + strconv.Itoa(hs.Host)
			switch {
			case hs.State == fleet.HostQuarantined:
				want = append(want, edge{"quarantine", subject})
				lastQuarantineTick = tick
			case prev[h] == fleet.HostQuarantined:
				want = append(want, edge{"readmit", subject})
			case hs.State == fleet.HostDegraded:
				want = append(want, edge{"degraded", subject})
			default:
				want = append(want, edge{"recovered", subject})
			}
			prev[h] = hs.State
		}
	}
	if len(want) < 4 || lastQuarantineTick == nil {
		t.Fatalf("schedule produced %d edges (quarantine seen: %v); chaos too tame", len(want), lastQuarantineTick != nil)
	}

	// Conservation held on every rollup, and the per-host solver audit
	// stayed silent through degradation and holdover.
	if v := reg.Counter("vmpower_fleet_audit_checks_total", "").Value(); v != ticks {
		t.Fatalf("fleet audit checks = %d, want %d", v, ticks)
	}
	if v := reg.Counter("vmpower_fleet_audit_violations_total", "").Value(); v != 0 {
		t.Fatalf("fleet audit violations = %d, want 0", v)
	}
	if v := reg.Counter("vmpower_audit_checks_total", "").Value(); v == 0 {
		t.Fatal("per-host audits never ran")
	}
	if v := reg.Counter("vmpower_audit_violations_total", "").Value(); v != 0 {
		t.Fatalf("per-host audit violations = %d, want 0", v)
	}

	// The journal carries exactly the ground-truth edges, in order.
	var page obs.EventsJSON
	if code := getJSON(t, ts, "/api/v1/events?since=0", &page); code != 200 {
		t.Fatalf("events = %d", code)
	}
	var got []edge
	var lastSeq uint64
	sawDumpEvent := false
	for _, ev := range page.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("journal seqs not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case "quarantine", "readmit", "degraded", "recovered":
			got = append(got, edge{ev.Type, ev.Subject})
		case "flight_dump":
			if strings.HasPrefix(ev.Detail, "quarantine: ") {
				sawDumpEvent = true
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("journal has %d transition events, fleet made %d:\n got %v\nwant %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: journal %+v, fleet %+v", i, got[i], want[i])
		}
	}
	if !sawDumpEvent {
		t.Fatal("quarantine never journaled a flight dump")
	}

	// The quarantine-triggered dump is retrievable, and its quarantine
	// tick accounts exactly the VMs the rollup did.
	var dump obs.FlightDump
	if code := getJSON(t, ts, "/debug/flight?trigger=last", &dump); code != 200 {
		t.Fatalf("triggered dump = %d", code)
	}
	if !strings.HasPrefix(dump.Reason, "quarantine: host:") {
		t.Fatalf("dump reason = %q", dump.Reason)
	}
	var qrec *obs.FlightRecord
	for i := range dump.Records {
		if dump.Records[i].Tick == lastQuarantineTick.Tick {
			qrec = &dump.Records[i]
		}
	}
	// The quarantine that armed the newest dump is the last one the run
	// produced, so its tick is still inside the 256-deep ring.
	if qrec == nil {
		t.Fatalf("quarantine tick %d not in the dump", lastQuarantineTick.Tick)
	}
	if len(qrec.Names) != len(lastQuarantineTick.PerVM) {
		t.Fatalf("dump lists %d VMs, rollup accounted %d", len(qrec.Names), len(lastQuarantineTick.PerVM))
	}
	for i, name := range qrec.Names {
		w, ok := lastQuarantineTick.PerVM[name]
		if !ok {
			t.Fatalf("dump lists %s, absent from the rollup", name)
		}
		if qrec.PerVMWatts[i] != w {
			t.Fatalf("dump φ(%s) = %g, rollup %g", name, qrec.PerVMWatts[i], w)
		}
	}

	// The per-host tier travels the wire.
	var st StatusJSON
	if code := getJSON(t, ts, "/api/v1/status", &st); code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, hs := range st.HostStates {
		if hs.State == fleet.HostHealthy.String() && hs.Tier == "" {
			t.Fatalf("healthy host %d has no tier on the wire: %+v", hs.Host, hs)
		}
	}
}

// TestFleetFlightRecordBilledEnergy pins the flight record's per-VM
// energy to what the fleet bills, watts × the fleet's tick interval,
// when the fleet steps every 250 ms and is instrumented at 1 s.
func TestFleetFlightRecordBilledEnergy(t *testing.T) {
	f, err := fleet.New(fleet.Config{
		Seed:             1,
		CalibrationTicks: 40,
		TickInterval:     250 * time.Millisecond,
	}, []fleet.VMRequest{
		{Name: "a1", Tenant: "acme", Type: 3, Workload: "gcc", WorkloadSeed: 11},
		{Name: "b1", Tenant: "edu-lab", Type: 0, Workload: "namd", WorkloadSeed: 15},
	})
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
	srv.Instrument(obs.NewRegistry(), obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Second)
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := srv.DumpFlight(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var dump struct{ Records []obs.FlightRecord }
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	rec := dump.Records[len(dump.Records)-1]
	if len(rec.Names) != 2 || len(rec.PerVMEnergyWs) != 2 {
		t.Fatalf("record lists %v with energies %v, want both VMs", rec.Names, rec.PerVMEnergyWs)
	}
	// One VM per tenant: each tenant's bill is its VM's energy.
	billed := f.EnergyWhByTenant()
	for i, name := range rec.Names {
		tenant, err := f.VMTenant(name)
		if err != nil {
			t.Fatal(err)
		}
		want := billed[tenant] * 3600
		if got := rec.PerVMEnergyWs[i]; want <= 0 || math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s: flight record %g Ws, fleet billed %g Ws", name, got, want)
		}
	}
}
