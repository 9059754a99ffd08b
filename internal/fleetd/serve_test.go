package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/fleet"
	"vmpower/internal/obs"
	"vmpower/internal/scenario"
	"vmpower/internal/serve"
	"vmpower/internal/serve/servetest"
)

// encodeJSON is a fresh encode of v by the encoder the wire uses: the
// reference the cached bodies must match byte for byte.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// errorJSON decodes an error body.
type errorJSON struct {
	Error string `json:"error"`
}

// getBody fetches path and returns the raw bytes, for bit-identity
// comparisons against the cached snapshot.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// scenarioServer builds an instrumented 3-host fleet driving script,
// ready to Step.
func scenarioServer(t *testing.T, script string) *Server {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Hosts:            3,
		Seed:             11,
		MeterNoise:       0,
		CalibrationTicks: 6,
		Parallelism:      -1,
	}, lifecycleReqs())
	if err != nil {
		t.Fatal(err)
	}
	return fleetServer(t, f, script)
}

// fleetServer calibrates f and serves it instrumented, driving script.
func fleetServer(t *testing.T, f *fleet.Fleet, script string) *Server {
	t.Helper()
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(obs.NewRegistry(), obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Minute)
	events, err := cliutil.ParseScenario(script)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := scenario.New(f, events, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetScenario(engine)
	return srv
}

// servedFleets steps two fleets and calls check after every tick: a
// lifecycle fleet whose scenario powers a VM off and on, hot-plugs a VM
// of a new tenant, migrates another and removes the hot-plugged one
// (events, open migrations, and per-VM and per-tenant key sets that
// change twice), and the chaos fleet, whose host 1 drops out past the
// holdover into quarantine (degraded and quarantined hosts, unaccounted
// VMs). It fails unless the ticks carried each of those.
func servedFleets(t *testing.T, check func(srv *Server, ts *httptest.Server)) {
	t.Helper()
	lifecycle := scenarioServer(t, "s1@2:poweroff,s1@4:poweron,n1@2:hotplug:2:small:dave:gcc:77,"+
		"s2@3:migrate:2:2,n1@6:remove")
	chaos, fm, _, _ := chaosRig(t, 1)
	var events, migrations, unaccounted, degraded, quarantined, rekeyed bool
	for _, run := range []struct {
		srv   *Server
		ticks int
		next  func() // advances the fault schedule, if any
	}{{lifecycle, 8, func() {}}, {chaos, 24, fm.NextTick}} {
		ts := httptest.NewServer(run.srv.Handler())
		vms, tenants := -1, -1
		for i := 0; i < run.ticks; i++ {
			if _, err := run.srv.Step(); err != nil {
				t.Fatal(err)
			}
			run.next()
			check(run.srv, ts)
			w := run.srv.latest
			events = events || len(w.Events) > 0
			migrations = migrations || len(w.Migrations) > 0
			unaccounted = unaccounted || len(w.Unaccounted) > 0
			degraded = degraded || w.DegradedHosts > 0
			quarantined = quarantined || w.QuarantinedHosts > 0
			rekeyed = rekeyed || vms >= 0 && (len(w.PerVM) != vms || len(w.PerTenant) != tenants)
			vms, tenants = len(w.PerVM), len(w.PerTenant)
		}
		ts.Close()
	}
	if !events || !migrations || !unaccounted || !degraded || !quarantined || !rekeyed {
		t.Fatalf("the ticks missed a case: events %v, migrations %v, unaccounted %v, degraded %v, quarantined %v, key set change %v",
			events, migrations, unaccounted, degraded, quarantined, rekeyed)
	}
}

// TestFleetCachedBytesIdentical pins the serving-path contract on the
// fleet daemon: every body a tick caches comes from the appender (it is
// OK, so the handler serves it) and is bit-identical to a fresh
// encoding/json encode of the same tick's state, on every tick of
// servedFleets — through hot-plug and removal, events, migrations and
// quarantine — including the scenario endpoint while a scenario runs.
func TestFleetCachedBytesIdentical(t *testing.T) {
	type cached struct {
		path string
		body serve.Body
		v    any // the state the body encodes
	}
	servedFleets(t, func(srv *Server, ts *httptest.Server) {
		d := srv.served.Load()
		srv.mu.RLock()
		tick := srv.latest.Tick
		cases := []cached{
			{"/api/v1/allocation", d.allocation, srv.latest},
			{"/api/v1/status", d.status, srv.statusLocked()},
			{"/api/v1/energy", d.energy, srv.energyLocked()},
		}
		if srv.scenario != nil {
			cases = append(cases, cached{"/api/v1/scenario", d.scenario, srv.scenario})
		}
		srv.mu.RUnlock()
		for _, c := range cases {
			want, err := encodeJSON(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if !c.body.OK() {
				t.Fatalf("tick %d: %s body not cached", tick, c.path)
			}
			if got := getBody(t, ts, c.path); !bytes.Equal(got, want) {
				t.Fatalf("tick %d: cached %s differs from fresh encode:\n got %s\nwant %s", tick, c.path, got, want)
			}
		}
	})
}

// TestFleetWritersMatchEncodingJSON fills every exported field of each
// wire type a tick publishes, nested ones included, by reflection, and
// requires its writer to append the bytes encoding/json gives the value;
// so must the zero value, with every omitempty field absent and every
// map and slice nil, and a value whose floats run in repeats with 0 next
// to -0. A field added to a wire type but not to its writer fails here.
func TestFleetWritersMatchEncodingJSON(t *testing.T) {
	for _, fill := range servetest.Fills {
		var tk TickJSON
		var d TickDeltaJSON
		var st StatusJSON
		var en EnergyJSON
		var sc ScenarioJSON
		fill.Fill(&tk)
		fill.Fill(&d)
		fill.Fill(&st)
		fill.Fill(&en)
		fill.Fill(&sc)
		// The energy writer takes every tenant of the fleet in ascending
		// order, a superset of its maps' keys.
		all := map[string]float64{"~tenant without energy": 0}
		for k := range en.PerTenantWh {
			all[k] = 0
		}
		for k := range en.DegradedPerTenantWh {
			all[k] = 0
		}
		tenants := servetest.Keys(all)
		for _, c := range []struct {
			name  string
			v     any
			write func(*serve.Encoder)
		}{
			{"tick", &tk, func(e *serve.Encoder) {
				writeTick(e, &tk, servetest.Keys(tk.PerVM), servetest.Keys(tk.PerTenant), encodeHosts(nil, tk.Hosts))
			}},
			{"delta", &d, func(e *serve.Encoder) {
				writeTickDelta(e, &d, servetest.Keys(d.PerVM), servetest.Keys(d.PerTenant))
			}},
			{"status", &st, func(e *serve.Encoder) { writeStatus(e, &st, encodeHosts(nil, st.HostStates)) }},
			{"energy", &en, func(e *serve.Encoder) { writeEnergy(e, &en, tenants) }},
			{"scenario", &sc, func(e *serve.Encoder) { writeScenario(e, &sc) }},
		} {
			if got, want, ok := servetest.Same(c.v, c.write); !ok {
				t.Errorf("%s (%s): writer differs from encoding/json:\n got %s\nwant %s", c.name, fill.Name, got, want)
			}
		}
	}
}

// composeTick applies a TickDeltaJSON to a base tick the way a delta
// client would: overwrite scalars, upsert per-VM/per-tenant, delete the
// removed names, replace host rows by id (dropping removed hosts), and
// take Unaccounted/Events/Migrations wholesale.
func composeTick(base *TickJSON, d *TickDeltaJSON) *TickJSON {
	out := &TickJSON{
		Tick:               d.Tick,
		MeasuredWatts:      d.MeasuredWatts,
		DynamicWatts:       d.DynamicWatts,
		PerVM:              map[string]float64{},
		PerTenant:          map[string]float64{},
		Degraded:           d.Degraded,
		DegradedHosts:      d.DegradedHosts,
		QuarantinedHosts:   d.QuarantinedHosts,
		DrainingHosts:      d.DrainingHosts,
		DrainedHosts:       d.DrainedHosts,
		IdleUnmeteredHosts: d.IdleUnmeteredHosts,
		Unaccounted:        d.Unaccounted,
		Events:             d.Events,
		Migrations:         d.Migrations,
	}
	for name, w := range base.PerVM {
		out.PerVM[name] = w
	}
	for name, w := range base.PerTenant {
		out.PerTenant[name] = w
	}
	for name, w := range d.PerVM {
		out.PerVM[name] = w
	}
	for name, w := range d.PerTenant {
		out.PerTenant[name] = w
	}
	for _, name := range d.RemovedVMs {
		delete(out.PerVM, name)
	}
	for _, name := range d.RemovedTenants {
		delete(out.PerTenant, name)
	}
	hosts := map[int]HostJSON{}
	for _, h := range base.Hosts {
		hosts[h.Host] = h
	}
	for _, h := range d.Hosts {
		hosts[h.Host] = h
	}
	for _, id := range d.RemovedHosts {
		delete(hosts, id)
	}
	ids := make([]int, 0, len(hosts))
	for id := range hosts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out.Hosts = append(out.Hosts, hosts[id])
	}
	return out
}

// TestFleetDeltaComposes runs a hot-plug + remove scenario and pins the
// fleet delta contract: a single tick's delta carries exactly the hosts
// and VMs whose wire value changed, a windowed delta observes the
// roster removal, and composing base + delta reconstructs the full tick
// bit-for-bit.
func TestFleetDeltaComposes(t *testing.T) {
	srv := scenarioServer(t, "n1@3:hotplug:2:small:dave:gcc:77,n1@10:remove")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Past the hot-plug: n1 is live.
	for i := 0; i < 5; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var base TickJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &base); code != http.StatusOK {
		t.Fatalf("full allocation: status %d", code)
	}
	if _, ok := base.PerVM["n1"]; !ok {
		t.Fatalf("hot-plugged VM missing from base: %v", base.PerVM)
	}

	// One tick: the delta must carry exactly what changed.
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	var full TickJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &full); code != http.StatusOK {
		t.Fatalf("full allocation: status %d", code)
	}
	var delta TickDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+strconv.Itoa(base.Tick), &delta); code != http.StatusOK {
		t.Fatalf("delta: status %d", code)
	}
	if delta.Full {
		t.Fatalf("since inside the window must not resync: %+v", delta)
	}
	for name, w := range full.PerVM {
		dw, inDelta := delta.PerVM[name]
		bw, inBase := base.PerVM[name]
		if changed := !inBase || bw != w; changed != inDelta {
			t.Fatalf("VM %s: changed=%v but delta membership=%v", name, changed, inDelta)
		} else if inDelta && dw != w {
			t.Fatalf("VM %s: delta carries %v, latest is %v", name, dw, w)
		}
	}
	baseHosts := map[int]*HostJSON{}
	for i := range base.Hosts {
		baseHosts[base.Hosts[i].Host] = &base.Hosts[i]
	}
	inDelta := map[int]bool{}
	for i := range delta.Hosts {
		inDelta[delta.Hosts[i].Host] = true
	}
	for i := range full.Hosts {
		h := &full.Hosts[i]
		prev, ok := baseHosts[h.Host]
		if changed := !ok || !hostEqual(prev, h); changed != inDelta[h.Host] {
			t.Fatalf("host %d: changed=%v but delta membership=%v", h.Host, changed, inDelta[h.Host])
		}
	}
	composed := composeTick(&base, &delta)
	a, _ := encodeJSON(composed)
	b, _ := encodeJSON(&full)
	if !bytes.Equal(a, b) {
		t.Fatalf("composed tick differs:\n got %s\nwant %s", a, b)
	}

	// Through the removal: a windowed delta must say n1 is gone, and
	// still compose exactly.
	for i := 0; i < 7; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var full2 TickJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &full2); code != http.StatusOK {
		t.Fatalf("full allocation: status %d", code)
	}
	if _, ok := full2.PerVM["n1"]; ok {
		t.Fatalf("n1 still present after remove: %v", full2.PerVM)
	}
	var delta2 TickDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+strconv.Itoa(base.Tick), &delta2); code != http.StatusOK {
		t.Fatalf("windowed delta: status %d", code)
	}
	removed := false
	for _, name := range delta2.RemovedVMs {
		if name == "n1" {
			removed = true
		}
	}
	if !removed {
		t.Fatalf("windowed delta must report n1 removed: %+v", delta2.RemovedVMs)
	}
	composed2 := composeTick(&base, &delta2)
	a2, _ := encodeJSON(composed2)
	b2, _ := encodeJSON(&full2)
	if !bytes.Equal(a2, b2) {
		t.Fatalf("composed tick (with removal) differs:\n got %s\nwant %s", a2, b2)
	}

	// Edge cases: current client, ahead-of-daemon client, malformed.
	var empty TickDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+strconv.Itoa(full2.Tick), &empty); code != http.StatusOK {
		t.Fatalf("empty delta: status %d", code)
	}
	if empty.Full || len(empty.PerVM) != 0 || len(empty.Hosts) != 0 {
		t.Fatalf("current client must get an empty delta: %+v", empty)
	}
	var resync TickDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+strconv.Itoa(full2.Tick+999), &resync); code != http.StatusOK {
		t.Fatalf("resync: status %d", code)
	}
	if !resync.Full || len(resync.PerVM) != len(full2.PerVM) || len(resync.Hosts) != len(full2.Hosts) {
		t.Fatalf("ahead-of-daemon client must get a full resync: %+v", resync)
	}
	var e errorJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since=-3", &e); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", code)
	}
}

// nullResponseWriter is a reusable ResponseWriter for allocation pins:
// the header map is allocated once and the body discarded.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestFleetCachedGetZeroAllocs pins zero allocations per cached GET on
// the fleet daemon's read-mostly endpoints.
func TestFleetCachedGetZeroAllocs(t *testing.T) {
	f := smallFleet(t)
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	w := &nullResponseWriter{h: make(http.Header)}
	for _, tc := range []struct {
		path    string
		handler http.HandlerFunc
	}{
		{"/api/v1/allocation", srv.handleAllocation},
		{"/api/v1/status", srv.handleStatus},
		{"/api/v1/energy", srv.handleEnergy},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if avg := testing.AllocsPerRun(200, func() { tc.handler(w, req) }); avg != 0 {
			t.Errorf("%s: %v allocs per cached GET, want 0", tc.path, avg)
		}
	}
}

// TestRosterScrapeRace is the regression pin for the fleetd roster
// races: handleStatus and handleHealthz used to call s.f.Hosts() /
// s.f.EmptyHosts() from handler goroutines, racing the hot-plug/remove
// mutations the scenario engine applies on the Step goroutine. The
// assertion is -race staying quiet while scrapers hammer both endpoints
// through roster churn; responses must also stay well-formed.
func TestRosterScrapeRace(t *testing.T) {
	srv := scenarioServer(t,
		"n1@2:hotplug:2:small:dave:gcc:77,n1@8:remove,"+
			"n2@5:hotplug:2:small:dave:gcc:78,n2@12:remove")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/api/v1/status", "/healthz"} {
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(ts.URL + p)
					if err != nil {
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("%s: status %d", p, resp.StatusCode)
						return
					}
				}
			}(path)
		}
	}
	for i := 0; i < 15; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	var st StatusJSON
	if code := getJSON(t, ts, "/api/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Hosts != 3 {
		t.Fatalf("status hosts = %d, want 3", st.Hosts)
	}
}

// failingResponseWriter rejects every body write, standing in for a
// client that hung up mid-response.
type failingResponseWriter struct {
	h http.Header
}

func (w *failingResponseWriter) Header() http.Header { return w.h }
func (w *failingResponseWriter) WriteHeader(int)     {}
func (w *failingResponseWriter) Write([]byte) (int, error) {
	return 0, errors.New("client gone")
}

// TestFleetEncodeErrorsCounted pins the silent-failure fix on the fleet
// daemon: body encode/write failures land in
// vmpower_http_encode_errors_total instead of being discarded.
func TestFleetEncodeErrorsCounted(t *testing.T) {
	f := smallFleet(t)
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Minute)
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	encodeErrs := reg.Counter("vmpower_http_encode_errors_total", "")
	if encodeErrs.Value() != 0 {
		t.Fatalf("counter starts at %d, want 0", encodeErrs.Value())
	}
	w := &failingResponseWriter{h: make(http.Header)}
	srv.handleAllocation(w, httptest.NewRequest(http.MethodGet, "/api/v1/allocation", nil))
	if got := encodeErrs.Value(); got != 1 {
		t.Fatalf("after failing cached write: counter %d, want 1", got)
	}
	srv.handleAllocation(w, httptest.NewRequest(http.MethodGet, "/api/v1/allocation?since=0", nil))
	if got := encodeErrs.Value(); got != 2 {
		t.Fatalf("after failing delta write: counter %d, want 2", got)
	}
}

// TestFleetHostRowUnencodable pins the failure path of the host rows
// the allocation and status bodies share: a row that cannot encode (a
// NaN watt) leaves both bodies not OK, so both handlers fall back to the
// per-request path, whose encode failure is counted; the energy body,
// which holds no host row, stays cached.
func TestFleetHostRowUnencodable(t *testing.T) {
	f := smallFleet(t)
	if err := f.Calibrate(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(f)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Minute)
	tick, err := srv.Step()
	if err != nil {
		t.Fatal(err)
	}
	bad := *tick
	bad.Tick++
	bad.Hosts = append([]fleet.HostStatus(nil), tick.Hosts...)
	bad.Hosts[1].MeasuredWatts = math.NaN()
	srv.record(&bad)
	d := srv.served.Load()
	if d.allocation.OK() || d.status.OK() || !d.energy.OK() {
		t.Fatalf("bodies OK: allocation %v, status %v, energy %v; want false, false, true",
			d.allocation.OK(), d.status.OK(), d.energy.OK())
	}
	encodeErrs := reg.Counter("vmpower_http_encode_errors_total", "")
	h := srv.Handler()
	for i, path := range []string{"/api/v1/allocation", "/api/v1/status", "/api/v1/energy"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		if want := min(i+1, 2); encodeErrs.Value() != uint64(want) {
			t.Fatalf("after %s: %d encode errors, want %d", path, encodeErrs.Value(), want)
		}
	}
}

// TestFleetCachedContentLength pins the declared length of every cached
// fleet body, which keeps net/http from chunk-encoding bodies past its
// 2 KiB buffer.
func TestFleetCachedContentLength(t *testing.T) {
	srv := scenarioServer(t, "s1@2:poweroff")
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	tick := strconv.Itoa(srv.latest.Tick)
	h := srv.Handler()
	for _, path := range []string{"/api/v1/allocation", "/api/v1/status", "/api/v1/energy",
		"/api/v1/scenario", "/api/v1/allocation?since=" + tick} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
			t.Errorf("%s: Content-Length %q, body is %s bytes", path, got, want)
		}
	}
}

// TestFleetCachedDeltaBytesIdentical pins the fleet's cached delta
// bodies: for a client that is current (since = tick) or one tick behind
// (since = tick-1), the served bytes equal the delta logs' composition,
// on the first tick, on quiet ticks (every VM powered off), through a
// hot-plug and its removal, and on every tick of servedFleets, and they
// come from the snapshot's cache: two requests, one composition.
func TestFleetCachedDeltaBytesIdentical(t *testing.T) {
	srv := fleetServer(t, smallFleet(t), "a1@2:poweroff,a2@2:poweroff,a3@2:poweroff,a4@2:poweroff,"+
		"b1@2:poweroff,n1@5:hotplug:1:small:dave:gcc:77,n1@7:remove")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	quiet := 0
	for i := 0; i < 8; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
		if checkFleetDeltas(t, srv, ts) {
			quiet++
		}
	}
	if quiet == 0 {
		t.Fatal("no quiet tick: the test never served an empty delta")
	}
	servedFleets(t, func(srv *Server, ts *httptest.Server) { checkFleetDeltas(t, srv, ts) })
}

// checkFleetDeltas compares the served since = tick and tick-1 bodies
// with encoding/json of the logs' composition, and requires each to be
// composed once for two requests. It reports whether the tick-1 delta
// was empty.
func checkFleetDeltas(t *testing.T, srv *Server, ts *httptest.Server) (quiet bool) {
	t.Helper()
	d := srv.served.Load()
	srv.mu.RLock()
	wire := srv.latest
	srv.mu.RUnlock()
	for _, since := range []int{wire.Tick, wire.Tick - 1} {
		path := "/api/v1/allocation?since=" + strconv.Itoa(since)
		delta := srv.delta(wire, since)
		want, err := encodeJSON(delta)
		if err != nil {
			t.Fatal(err)
		}
		if since < wire.Tick && len(delta.PerVM)+len(delta.Hosts)+len(delta.PerTenant) == 0 {
			quiet = true
		}
		if got := getBody(t, ts, path); !bytes.Equal(got, want) {
			t.Fatalf("tick %d since %d: cached delta differs from the delta logs' composition:\n got %s\nwant %s",
				wire.Tick, since, got, want)
		}
		if b, _ := d.deltas.Cached(since); !b.OK() {
			t.Fatalf("tick %d since %d: delta body not cached", wire.Tick, since)
		}
		var composes atomic.Int32
		counted := *d
		counted.deltas = serve.NewDeltas(wire.Tick, func(since int) *TickDeltaJSON {
			composes.Add(1)
			return srv.delta(wire, since)
		}, func(e *serve.Encoder, d *TickDeltaJSON) {
			writeTickDelta(e, d, servetest.Keys(wire.PerVM), servetest.Keys(wire.PerTenant))
		})
		srv.served.Store(&counted)
		for k := 0; k < 2; k++ {
			if got := getBody(t, ts, path); !bytes.Equal(got, want) {
				t.Fatalf("tick %d since %d: request %d differs:\n got %s\nwant %s", wire.Tick, since, k, got, want)
			}
		}
		srv.served.Store(d)
		if n := composes.Load(); n != 1 {
			t.Fatalf("tick %d since %d: %d compositions for two requests, want 1 (served without caching the body)",
				wire.Tick, since, n)
		}
	}
	return quiet
}

// BenchmarkPublish times Step's publish layer on a fleet of 32 Xeon
// hosts with 8 large VMs each, from 8 tenants: building the tick's wire
// form, energy and roster, logging the deltas and pre-encoding the
// tick's bodies, everything Step does past the fleet's own Step. Two
// ticks alternate, so every VM's watts change on every tick.
func BenchmarkPublish(b *testing.B) {
	b.Run("hosts=32x8", func(b *testing.B) {
		var reqs []fleet.VMRequest
		for i := 0; i < 32*8; i++ {
			reqs = append(reqs, fleet.VMRequest{
				Name: fmt.Sprintf("L%03d", i), Tenant: fmt.Sprintf("t%d", i%8), Type: 2,
				Workload: "gcc", WorkloadSeed: int64(i),
			})
		}
		f, err := fleet.New(fleet.Config{Hosts: 32, Seed: 1, CalibrationTicks: 20}, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Calibrate(); err != nil {
			b.Fatal(err)
		}
		srv, err := New(f)
		if err != nil {
			b.Fatal(err)
		}
		var ticks [2]fleet.Tick
		for i := range ticks {
			tk, err := srv.Step()
			if err != nil {
				b.Fatal(err)
			}
			ticks[i] = *tk
		}
		if n := len(srv.latest.Hosts); n != 32 {
			b.Fatalf("%d hosts, want 32", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk := &ticks[i%2]
			tk.Tick = ticks[1].Tick + 1 + i
			srv.record(tk)
		}
	})
}
