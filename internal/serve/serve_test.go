package serve

import (
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmpower/internal/obs"
)

// nullResponseWriter discards the body and reuses one header map.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// failingResponseWriter rejects every body write: a client that hung up.
type failingResponseWriter struct{ h http.Header }

func (w *failingResponseWriter) Header() http.Header       { return w.h }
func (w *failingResponseWriter) WriteHeader(int)           {}
func (w *failingResponseWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// instrumented returns a core instrumented on a fresh registry, and its
// encode-error counter.
func instrumented(interval time.Duration) (*Core, *Telemetry, *obs.Counter) {
	reg := obs.NewRegistry()
	t := NewTelemetry(reg, obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), interval, obs.NewFlightRecorder(4, 1, 0))
	var c Core
	c.Instrument(t)
	return &c, t, reg.Counter("vmpower_http_encode_errors_total", "")
}

// TestEncode pins the body a cached endpoint serves: the per-request
// encoder's bytes (trailing newline included) with their length, and the
// zero Body for a value that cannot encode.
func TestEncode(t *testing.T) {
	b := Encode(map[string]float64{"w": 1.5})
	if string(b.data) != `{"w":1.5}`+"\n" || b.size[0] != "10" || !b.OK() {
		t.Fatalf("Encode: %q size %v", b.data, b.size)
	}
	if b := Encode(math.NaN()); b.OK() {
		t.Fatalf("Encode(NaN) = %q, want the zero Body", b.data)
	}
}

// TestWriteCachedZeroAllocs pins the cached GET path: writing a
// pre-encoded body allocates nothing.
func TestWriteCachedZeroAllocs(t *testing.T) {
	c, _, _ := instrumented(time.Second)
	b := Encode(map[string]int{"tick": 7})
	w := &nullResponseWriter{h: make(http.Header)}
	if avg := testing.AllocsPerRun(200, func() { c.WriteCached(w, b) }); avg != 0 {
		t.Fatalf("%v allocs per cached write, want 0", avg)
	}
	if got := w.h.Get("Content-Length"); got != "11" {
		t.Fatalf("Content-Length %q, want 11", got)
	}
}

// TestEncodeErrorsCountedOnce pins the accounting: each failed cached
// write, failed per-request write and value that cannot encode adds one
// to vmpower_http_encode_errors_total; an uninstrumented core counts
// nothing and does not fail.
func TestEncodeErrorsCountedOnce(t *testing.T) {
	c, _, errs := instrumented(time.Second)
	gone := &failingResponseWriter{h: make(http.Header)}
	c.WriteCached(gone, Encode(1))
	if got := errs.Value(); got != 1 {
		t.Fatalf("after a failed cached write: %d, want 1", got)
	}
	c.WriteJSON(gone, http.StatusOK, 1)
	if got := errs.Value(); got != 2 {
		t.Fatalf("after a failed per-request write: %d, want 2", got)
	}
	c.WriteJSON(httptest.NewRecorder(), http.StatusOK, math.Inf(1))
	if got := errs.Value(); got != 3 {
		t.Fatalf("after a value that cannot encode: %d, want 3", got)
	}
	// A cached delta the appender cannot encode falls back to the
	// per-request path, which counts the failure.
	nan := NewDeltas(5, func(int) float64 { return math.NaN() }, func(e *Encoder, v float64) { e.Float("", v) })
	c.ServeDelta(httptest.NewRecorder(), "5", nan, "")
	if got := errs.Value(); got != 4 {
		t.Fatalf("after a cached delta that cannot encode: %d, want 4", got)
	}
	var bare Core
	bare.WriteCached(gone, Encode(1))
}

// TestHealthRungs pins the shared /healthz rungs at the stall boundary
// (three intervals: 3 s uninstrumented, 6 s at a 2 s cadence): exactly
// three intervals after Start or the last tick is still live, a
// nanosecond more is stalled; a Step error outranks both.
func TestHealthRungs(t *testing.T) {
	start := time.Unix(1000, 0)
	last := start.Add(time.Hour)
	var bare Core
	paced, _, _ := instrumented(2 * time.Second)
	check := func(name string, c *Core, now time.Time, want Health) {
		t.Helper()
		if got := c.Health(now); got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
	bare.Start(start)
	paced.Start(start)
	check("starting", &bare, start.Add(3*time.Second), Health{Status: "starting", Code: 200})
	check("stalled before first tick", &bare, start.Add(3*time.Second+1), Health{Status: "stalled", Code: 503})
	for i := 0; i < 5; i++ {
		bare.Ticked(last)
		paced.Ticked(last)
	}
	check("live at boundary", &bare, last.Add(3*time.Second), Health{Code: 200, Ticks: 5, AgeSeconds: 3})
	check("stalled past boundary", &bare, last.Add(3*time.Second+1), Health{Status: "stalled", Code: 503, Ticks: 5, AgeSeconds: 3.000000001})
	check("live at paced boundary", paced, last.Add(6*time.Second), Health{Code: 200, Ticks: 5, AgeSeconds: 6})
	check("stalled past paced boundary", paced, last.Add(6*time.Second+1), Health{Status: "stalled", Code: 503, Ticks: 5, AgeSeconds: 6.000000001})
	bare.Failed(errors.New("meter lost"))
	check("error", &bare, last.Add(time.Hour), Health{Status: "error", Code: 503, Ticks: 5, Error: "meter lost"})
}

// TestTelemetryRoutes pins the shared routes: absent uninstrumented;
// instrumented, /metrics lists per-route request counts, and
// /debug/flight?trigger=last answers 404 until a dump fires, then the
// first reason armed on that tick, journaled once.
func TestTelemetryRoutes(t *testing.T) {
	var bare Core
	mux := bare.Mux()
	bare.Handle(mux, "/x", func(w http.ResponseWriter, _ *http.Request) { bare.WriteJSON(w, 200, 1) })
	for path, want := range map[string]int{"/x": 200, "/metrics": 404, "/debug/flight": 404} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Errorf("uninstrumented %s: %d, want %d", path, rec.Code, want)
		}
	}

	c, tel, _ := instrumented(time.Second)
	mux = c.Mux()
	c.Handle(mux, "/x", func(w http.ResponseWriter, _ *http.Request) { c.WriteJSON(w, 200, 1) })
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	get("/x")
	if body := get("/metrics").Body.String(); !strings.Contains(body, `vmpower_http_requests_total{path="/x"} 1`) {
		t.Fatalf("/metrics misses the /x request:\n%s", body)
	}
	if rec := get("/debug/flight?trigger=last"); rec.Code != http.StatusNotFound {
		t.Fatalf("trigger=last before any dump: %d, want 404", rec.Code)
	}
	tel.ArmDump("first")
	tel.ArmDump("second")
	tel.FireDump(7)
	tel.FireDump(8)
	if rec := get("/debug/flight?trigger=last"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"reason": "first"`) {
		t.Fatalf("trigger=last after a dump: %d %s", rec.Code, rec.Body)
	}
	if n := strings.Count(get("/api/v1/events?since=0").Body.String(), "flight_dump"); n != 1 {
		t.Fatalf("%d flight_dump events journaled, want 1", n)
	}
}
