package powerd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmpower/internal/obs"
	"vmpower/internal/serve"
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

// TestCachedBytesIdentical pins the serving-path contract: the cached
// snapshot bytes each endpoint serves are bit-identical to a fresh
// per-request encode of the same tick's state, across several ticks.
func TestCachedBytesIdentical(t *testing.T) {
	srv, host := testServer(t)
	host.SetCoalition(vm.GrandCoalition(2))
	if err := host.Attach(0, workload.Synthetic{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
		srv.mu.RLock()
		wantAlloc, err1 := encodeJSON(srv.latest)
		wantStatus, err2 := encodeJSON(srv.statusLocked())
		wantEnergy, err3 := encodeJSON(srv.energyLocked())
		srv.mu.RUnlock()
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		if got := getBody(t, ts, "/api/v1/allocation"); !bytes.Equal(got, wantAlloc) {
			t.Fatalf("tick %d: cached allocation differs from fresh encode:\n got %s\nwant %s", i, got, wantAlloc)
		}
		if got := getBody(t, ts, "/api/v1/status"); !bytes.Equal(got, wantStatus) {
			t.Fatalf("tick %d: cached status differs from fresh encode:\n got %s\nwant %s", i, got, wantStatus)
		}
		if got := getBody(t, ts, "/api/v1/energy"); !bytes.Equal(got, wantEnergy) {
			t.Fatalf("tick %d: cached energy differs from fresh encode:\n got %s\nwant %s", i, got, wantEnergy)
		}
	}
}

// TestCachedDeltaBytesIdentical pins the cached delta bodies: for a
// client that is current (since = tick) or one tick behind (since =
// tick-1), the served bytes equal the delta log's composition, on the
// first tick, on ticks where nothing changed and on ticks where VMs did,
// and they come from the snapshot's cache: two requests, one composition.
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
			var composes atomic.Int32
			counted := *d
			counted.deltas = serve.NewDeltas(wire.Tick, func(since int) any {
				composes.Add(1)
				return srv.delta(wire, since)
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
// state on this path is the approximator's RWMutex-guarded table.
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
	if _, err := srv.Step(); err != nil {
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
