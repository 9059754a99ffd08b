package powerd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/serve"
	"vmpower/internal/serve/servetest"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// encodeJSON is a fresh encode of v by the encoder the wire uses: the
// reference the cached bodies must match byte for byte.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
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

// vmNames is n names printed by format with the VM's index.
func vmNames(n int, format string) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
	}
	return names
}

// escapingNames is 200 VM names that need escaping: <, >, &, quotes,
// backslashes, control bytes, U+2028/U+2029 and invalid UTF-8.
func escapingNames() []string {
	names := vmNames(200, "vm<%03d>&\"q\\")
	names[1] = "vm\b\f\x01\t" + string(rune(0x2028)) + string(rune(0x2029))
	names[2] = "vm\xff\xfe"
	names[3] = "vm " + string(rune(0xe9)) + string(rune(0x1f600))
	return names
}

// wideServer is a calibrated server of len(names) small VMs on the dense
// 256-thread profile. All but ten share one generator and those ten run
// their own, so the exact tier serves every tick.
func wideServer(t testing.TB, names []string) *Server {
	t.Helper()
	n := len(names)
	mach, err := machine.New(machine.DenseProfile(), machine.Pack)
	if err != nil {
		t.Fatal(err)
	}
	vms := make([]vm.VM, n)
	for i, name := range names {
		vms[i] = vm.VM{Name: name, Type: 0}
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
	est, err := core.New(host, m, core.Config{Seed: 1, OfflineTicksPerCombo: 20, IdleMeasureTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.CollectOffline(); err != nil {
		t.Fatal(err)
	}
	running := make([]bool, n)
	for i := range running {
		running[i] = true
		if err := host.Attach(vm.ID(i), workload.Synthetic{Seed: int64(max(0, i-n+11) + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := host.SetRunning(running); err != nil {
		t.Fatal(err)
	}
	srv, err := New(est, names, 5)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// servedTicks steps a 2-VM server and a 200-VM one whose names need
// escaping five ticks each and calls check after every tick, plus once after a degraded tick
// recorded on top of the last one, with every degraded field set.
func servedTicks(t *testing.T, check func(srv *Server, ts *httptest.Server)) {
	t.Helper()
	small, host := testServer(t)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.Synthetic{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for _, srv := range []*Server{small, wideServer(t, escapingNames())} {
		ts := httptest.NewServer(srv.Handler())
		var alloc *core.Allocation
		for i := 0; i < 5; i++ {
			var err error
			if alloc, err = srv.Step(); err != nil {
				t.Fatal(err)
			}
			check(srv, ts)
		}
		deg := *alloc
		deg.Tick++
		deg.Degraded = true
		deg.DegradedReason = "holdover <stale> & \"quoted\""
		deg.HoldoverAgeTicks = 2
		deg.RejectedSamples = 3
		snap := srv.est.Host().Collect()
		srv.record(&deg, &snap)
		check(srv, ts)
		if st := srv.statusLocked(); st.LastDegradedReason == "" || !st.Degraded {
			t.Fatalf("degraded tick not recorded: %+v", st)
		}
		ts.Close()
	}
}

// TestCachedBytesIdentical pins the serving-path contract: every body a
// tick caches comes from the appender (it is OK, so the handler serves
// it) and is bit-identical to a fresh encoding/json encode of the same
// tick's state, across the ticks of servedTicks: a 2-VM host, a 200-VM
// host whose names need escaping, and a degraded tick with every
// omitempty field set.
func TestCachedBytesIdentical(t *testing.T) {
	servedTicks(t, func(srv *Server, ts *httptest.Server) {
		d := srv.served.Load()
		srv.mu.RLock()
		tick := srv.latest.Tick
		cases := []struct {
			path string
			body serve.Body
			v    any // the state the body encodes
		}{
			{"/api/v1/allocation", d.allocation, srv.latest},
			{"/api/v1/status", d.status, srv.statusLocked()},
			{"/api/v1/energy", d.energy, srv.energyLocked()},
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

// TestCachedDeltaBytesIdentical pins the cached delta bodies: for a
// client that is current (since = tick) or one tick behind (since =
// tick-1), the served bytes equal the delta log's composition on every
// tick of servedTicks (the first tick, the 200-VM host, the degraded
// tick), on ticks where nothing changed and on ticks where VMs did, and
// they come from the snapshot's cache: two requests, one composition.
func TestCachedDeltaBytesIdentical(t *testing.T) {
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 6; i++ {
		if i == 3 {
			host.SetCoalition(vm.GrandCoalition(2))
			if err := host.Attach(0, workload.Synthetic{Seed: 7}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
		checkCachedDeltas(t, srv, ts)
	}
	servedTicks(t, func(srv *Server, ts *httptest.Server) { checkCachedDeltas(t, srv, ts) })
}

// checkCachedDeltas compares the served since = tick and tick-1 bodies
// with encoding/json of the log's composition, and requires each to be
// composed once for two requests.
func checkCachedDeltas(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	d := srv.served.Load()
	srv.mu.RLock()
	wire := srv.latest
	srv.mu.RUnlock()
	for _, since := range []int{wire.Tick, wire.Tick - 1} {
		path := "/api/v1/allocation?since=" + itoa(since)
		want, err := encodeJSON(srv.delta(wire, since))
		if err != nil {
			t.Fatal(err)
		}
		if got := getBody(t, ts, path); !bytes.Equal(got, want) {
			t.Fatalf("tick %d since %d: cached delta differs from the delta log's composition:\n got %s\nwant %s",
				wire.Tick, since, got, want)
		}
		if b, _ := d.deltas.Cached(since); !b.OK() {
			t.Fatalf("tick %d since %d: delta body not cached", wire.Tick, since)
		}
		var composes atomic.Int32
		counted := *d
		counted.deltas = serve.NewDeltas(wire.Tick, func(since int) *AllocationDeltaJSON {
			composes.Add(1)
			return srv.delta(wire, since)
		}, func(e *serve.Encoder, d *AllocationDeltaJSON) { writeAllocationDelta(e, d, srv.keys) })
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
}

// TestWritersMatchEncodingJSON fills every exported field of each wire
// type a tick publishes, by reflection, and requires its writer to
// append the bytes encoding/json gives the value; so must the zero
// value, with every omitempty field absent and every map and slice nil,
// and a value whose floats run in repeats with 0 next to -0. A field
// added to a wire type but not to its writer fails here.
func TestWritersMatchEncodingJSON(t *testing.T) {
	for _, fill := range servetest.Fills {
		var a AllocationJSON
		var d AllocationDeltaJSON
		var st StatusJSON
		var en EnergyJSON
		fill.Fill(&a)
		fill.Fill(&d)
		fill.Fill(&st)
		fill.Fill(&en)
		var vms serve.Encoder
		vms.Strings("", st.VMs)
		vmsJSON := vms.Bytes()
		for _, c := range []struct {
			name  string
			v     any
			write func(*serve.Encoder)
		}{
			{"allocation", &a, func(e *serve.Encoder) { writeAllocation(e, &a, servetest.Keys(a.PerVM)) }},
			{"delta", &d, func(e *serve.Encoder) { writeAllocationDelta(e, &d, servetest.Keys(d.PerVM)) }},
			{"status", &st, func(e *serve.Encoder) { writeStatus(e, &st, vmsJSON) }},
			{"energy", &en, func(e *serve.Encoder) { writeEnergy(e, &en, servetest.Keys(en.PerVMWh)) }},
		} {
			if got, want, ok := servetest.Same(c.v, c.write); !ok {
				t.Errorf("%s (%s): writer differs from encoding/json:\n got %s\nwant %s", c.name, fill.Name, got, want)
			}
		}
	}
}

// TestEnergyTotalInNameOrder pins total_wh's summation order: the
// per-VM watt-hours are added in ascending name order, the order the
// body lists them, so repeated encodes of one state are byte-equal. One
// VM's energy dwarfs the rest, so any other order rounds differently.
func TestEnergyTotalInNameOrder(t *testing.T) {
	srv := wideServer(t, escapingNames())
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	for i, name := range srv.names {
		srv.energyWs[name] = 3600
		if i == 100 {
			srv.energyWs[name] = 3600e16
		}
	}
	var want float64
	for _, name := range servetest.Keys(srv.energyWs) {
		want += srv.energyWs[name] / 3600
	}
	srv.mu.Unlock()
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	first, _ := encodeJSON(srv.energyLocked())
	for i := 0; i < 50; i++ {
		en := srv.energyLocked()
		if en.TotalWh != want {
			t.Fatalf("encode %d: total_wh %v, want %v, the sum in name order", i, en.TotalWh, want)
		}
		if got, _ := encodeJSON(en); !bytes.Equal(got, first) {
			t.Fatalf("encode %d differs from the first:\n got %s\nwant %s", i, got, first)
		}
	}
}

// TestCachedContentLength pins the declared length of every cached body,
// which keeps net/http from chunk-encoding bodies past its 2 KiB buffer.
func TestCachedContentLength(t *testing.T) {
	srv, host := testServer(t)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	tick := itoa(srv.latest.Tick)
	h := srv.Handler()
	for _, path := range []string{"/api/v1/allocation", "/api/v1/status", "/api/v1/energy",
		"/api/v1/interactions", "/api/v1/allocation?since=" + tick} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		if got, want := rec.Header().Get("Content-Length"), itoa(rec.Body.Len()); got != want {
			t.Errorf("%s: Content-Length %q, body is %s bytes", path, got, want)
		}
	}
}

// TestAllocationDeltaComposes pins the delta contract three ways: an
// unchanged roster yields an empty delta, a changed tick's delta carries
// exactly the VMs whose wire watts differ between the two full scrapes,
// and composing base + delta reconstructs the full allocation
// bit-for-bit (same scalars, same per-VM map).
func TestAllocationDeltaComposes(t *testing.T) {
	srv, host := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Phase 1: every VM stopped — watts pin at zero, so nothing changes
	// after the first tick and a delta across those ticks must be empty
	// (exactly zero VMs).
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	var first AllocationJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &first); code != http.StatusOK {
		t.Fatalf("full allocation: status %d", code)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var idle AllocationDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+itoa(first.Tick), &idle); code != http.StatusOK {
		t.Fatalf("idle delta: status %d", code)
	}
	if idle.Full || len(idle.PerVM) != 0 {
		t.Fatalf("idle ticks must produce an empty delta, got %+v", idle)
	}

	// Phase 2: start the coalition and a workload — the next tick's
	// delta must carry exactly the VMs whose wire value differs between
	// the two full scrapes.
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.Synthetic{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var base AllocationJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &base); code != http.StatusOK {
		t.Fatalf("full allocation: status %d", code)
	}
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	var full AllocationJSON
	if code := getJSON(t, ts, "/api/v1/allocation", &full); code != http.StatusOK {
		t.Fatalf("full allocation: status %d", code)
	}
	var delta AllocationDeltaJSON
	path := "/api/v1/allocation?since=" + itoa(base.Tick)
	if code := getJSON(t, ts, path, &delta); code != http.StatusOK {
		t.Fatalf("%s: status %d", path, code)
	}
	if delta.Full {
		t.Fatalf("since inside the window must not resync: %+v", delta)
	}
	if delta.Since != base.Tick || delta.Tick != full.Tick {
		t.Fatalf("delta tick bounds: got since=%d tick=%d, want %d/%d",
			delta.Since, delta.Tick, base.Tick, full.Tick)
	}
	for name, w := range full.PerVM {
		dw, inDelta := delta.PerVM[name]
		if changed := w != base.PerVM[name]; changed != inDelta {
			t.Fatalf("%s: changed=%v but delta membership=%v (%+v)", name, changed, inDelta, delta.PerVM)
		} else if inDelta && dw != w {
			t.Fatalf("%s: delta carries %v, latest is %v", name, dw, w)
		}
	}
	if len(delta.PerVM) == 0 {
		t.Fatal("workload tick produced no changed VMs; test is vacuous")
	}
	// Compose: overwrite scalars, upsert per-VM.
	composed := base
	composed.Tick = delta.Tick
	composed.MeasuredWatts = delta.MeasuredWatts
	composed.DynamicWatts = delta.DynamicWatts
	composed.Method = delta.Method
	composed.Degraded = delta.Degraded
	composed.DegradedReason = delta.DegradedReason
	composed.HoldoverAgeTicks = delta.HoldoverAgeTicks
	composed.RejectedSamples = delta.RejectedSamples
	for name, w := range delta.PerVM {
		composed.PerVM[name] = w
	}
	a, _ := encodeJSON(&composed)
	b, _ := encodeJSON(&full)
	if !bytes.Equal(a, b) {
		t.Fatalf("composed allocation differs:\n got %s\nwant %s", a, b)
	}

	// since == latest tick: empty delta, no resync.
	var empty AllocationDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+itoa(full.Tick), &empty); code != http.StatusOK {
		t.Fatalf("empty delta: status %d", code)
	}
	if empty.Full || len(empty.PerVM) != 0 {
		t.Fatalf("current client must get an empty delta: %+v", empty)
	}
	// since ahead of the daemon (restart): full resync.
	var resync AllocationDeltaJSON
	if code := getJSON(t, ts, "/api/v1/allocation?since="+itoa(full.Tick+1000), &resync); code != http.StatusOK {
		t.Fatalf("resync: status %d", code)
	}
	if !resync.Full || len(resync.PerVM) != len(full.PerVM) {
		t.Fatalf("ahead-of-daemon client must get a full resync: %+v", resync)
	}
	// Malformed since: 400.
	if code := getJSON(t, ts, "/api/v1/allocation?since=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", code)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// nullResponseWriter is a reusable ResponseWriter for allocation pins:
// the header map is allocated once and the body discarded.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestCachedGetZeroAllocs pins the tentpole's headline property: a GET
// on a cached endpoint performs zero allocations — no JSON marshal, no
// header churn — once the tick has published its snapshot.
func TestCachedGetZeroAllocs(t *testing.T) {
	srv, host := testServer(t)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
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

// TestInteractionsConcurrentWithStep pins the satellite audit: the
// interactions endpoint (est.Interactions on handler goroutines) is safe
// concurrent with Step's EstimateTick over the same estimator. Run under
// -race this hammers both sides; the estimator's only shared mutable
// state on this path is its mutex-guarded worth plan.
func TestInteractionsConcurrentWithStep(t *testing.T) {
	srv, host := testServer(t)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.Synthetic{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/api/v1/interactions")
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("interactions: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
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

// TestEncodeErrorsCounted pins the silent-failure fix: body
// encode/write failures land in vmpower_http_encode_errors_total
// instead of being discarded.
func TestEncodeErrorsCounted(t *testing.T) {
	srv, host := testServer(t)
	reg := obs.NewRegistry()
	srv.Instrument(reg, obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Second)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		t.Fatal(err)
	}
	alloc, err := srv.Step()
	if err != nil {
		t.Fatal(err)
	}
	encodeErrs := reg.Counter("vmpower_http_encode_errors_total", "")
	if encodeErrs.Value() != 0 {
		t.Fatalf("counter starts at %d, want 0", encodeErrs.Value())
	}
	w := &failingResponseWriter{h: make(http.Header)}
	// Cached path: the pre-encoded body fails to write.
	srv.handleAllocation(w, httptest.NewRequest(http.MethodGet, "/api/v1/allocation", nil))
	if got := encodeErrs.Value(); got != 1 {
		t.Fatalf("after failing cached write: counter %d, want 1", got)
	}
	// Per-request path: the delta response fails to encode onto the wire.
	srv.handleAllocation(w, httptest.NewRequest(http.MethodGet, "/api/v1/allocation?since=0", nil))
	if got := encodeErrs.Value(); got != 2 {
		t.Fatalf("after failing delta write: counter %d, want 2", got)
	}
	// A value that cannot encode (NaN watts) is answered 500 with an
	// error body, on the uncached fallback and on an uncached delta.
	bad := *alloc
	bad.Tick++
	bad.MeasuredPower = math.NaN()
	snap := host.Collect()
	srv.record(&bad, &snap)
	for i, path := range []string{"/api/v1/allocation", "/api/v1/allocation?since=0"} {
		rec := httptest.NewRecorder()
		srv.handleAllocation(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body struct{ Error string }
		if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &body) != nil || body.Error == "" {
			t.Fatalf("%s: status %d, body %q; want 500 with an error body", path, rec.Code, rec.Body.String())
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
			t.Fatalf("%s: Content-Length %q, body is %s bytes", path, got, want)
		}
		if got, want := encodeErrs.Value(), uint64(3+i); got != want {
			t.Fatalf("after %s: counter %d, want %d", path, got, want)
		}
	}
}

// BenchmarkServeCached measures the cached GET path end to end through
// the handler (request parse, snapshot load, header assign, body write).
// ReportAllocs feeds the benchgate allocs/op pin: 0 on the trajectory.
func BenchmarkServeCached(b *testing.B) {
	srv, host := testServer(b)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.FloatPoint()); err != nil {
		b.Fatal(err)
	}
	if _, err := srv.Step(); err != nil {
		b.Fatal(err)
	}
	w := &nullResponseWriter{h: make(http.Header)}
	for _, tc := range []struct {
		name    string
		path    string
		handler http.HandlerFunc
	}{
		{"allocation", "/api/v1/allocation", srv.handleAllocation},
		{"status", "/api/v1/status", srv.handleStatus},
		{"energy", "/api/v1/energy", srv.handleEnergy},
	} {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.handler(w, req)
			}
		})
	}
}

// BenchmarkPublish times Step's publish layer on a host of 200 VMs named
// vm000 to vm199: recording one tick's allocation into the wire map, the
// energy counters and the history, and pre-encoding the tick's bodies.
// Two allocations alternate, so every VM's watts change on every tick as
// on a busy host.
func BenchmarkPublish(b *testing.B) {
	b.Run("n=200", func(b *testing.B) {
		srv := wideServer(b, vmNames(200, "vm%03d"))
		a, err := srv.Step()
		if err != nil {
			b.Fatal(err)
		}
		allocs := [2]core.Allocation{*a, *a}
		for i := range allocs {
			allocs[i].PerVM = make([]float64, len(a.PerVM))
			for j, w := range a.PerVM {
				allocs[i].PerVM[j] = w * (1 + 0.01*float64(i))
			}
		}
		snap := srv.est.Host().Collect()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			alloc := &allocs[i%2]
			alloc.Tick = a.Tick + 1 + i
			srv.record(alloc, &snap)
		}
	})
}
