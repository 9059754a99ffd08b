package powerd

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vmpower/internal/obs"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

// instrumentedServer builds a calibrated 2-VM server with a registry
// attached, and resets the package-global shapley/serial instrumentation
// when the test ends.
func instrumentedServer(t *testing.T) (*Server, *obs.Registry, func()) {
	t.Helper()
	srv, host := testServer(t)
	for _, id := range []vm.ID{0, 1} {
		if err := host.Attach(id, workload.FloatPoint()); err != nil {
			t.Fatal(err)
		}
	}
	host.SetCoalition(vm.CoalitionOf(0, 1))
	reg := obs.NewRegistry()
	srv.Instrument(reg, obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), time.Second)
	t.Cleanup(func() { srv.Instrument(nil, nil, 0) })
	return srv, reg, func() { srv.Instrument(nil, nil, 0) }
}

// parsedSeries is one exposition line: name, labels, value.
type parsedSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition parses the Prometheus text format far enough to check
// names, labels and values: families from # TYPE lines, series from data
// lines.
func parseExposition(t *testing.T, body string) (map[string]string, []parsedSeries) {
	t.Helper()
	families := map[string]string{} // name -> type
	var series []parsedSeries
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			families[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		id, raw := line[:sp], line[sp+1:]
		p := parsedSeries{labels: map[string]string{}}
		if br := strings.IndexByte(id, '{'); br >= 0 {
			p.name = id[:br]
			inner := strings.TrimSuffix(id[br+1:], "}")
			for _, pair := range strings.Split(inner, ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
				val, err := strconv.Unquote(pair[eq+1:])
				if err != nil {
					t.Fatalf("unquoting label in %q: %v", line, err)
				}
				p.labels[pair[:eq]] = val
			}
		} else {
			p.name = id
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil && raw != "+Inf" {
			t.Fatalf("parsing value in %q: %v", line, err)
		}
		p.value = v
		series = append(series, p)
	}
	return families, series
}

func TestMetricsEndpointE2E(t *testing.T) {
	srv, _, _ := instrumentedServer(t)
	for i := 0; i < 3; i++ {
		if _, err := srv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, series := parseExposition(t, string(body))

	if len(families) < 12 {
		t.Fatalf("only %d metric families exposed, want >= 12: %v", len(families), families)
	}
	wantFamilies := map[string]string{
		"vmpower_tick_duration_seconds":       "histogram",
		"vmpower_tick_stage_duration_seconds": "histogram",
		"vmpower_ticks_total":                 "counter",
		"vmpower_mc_permutations_total":       "counter",
		"vmpower_mc_stderr_watts":             "gauge",
		"vmpower_serial_bad_frames_total":     "counter",
		"vmpower_http_requests_total":         "counter",
		"vmpower_vm_watts":                    "gauge",
	}
	for name, typ := range wantFamilies {
		if got := families[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}

	// The 3 ticks must have landed in the counter and the histogram.
	var tickCount, ticksTotal float64
	stageSeen := map[string]bool{}
	vmSeen := map[string]bool{}
	for _, p := range series {
		switch p.name {
		case "vmpower_ticks_total":
			ticksTotal = p.value
		case "vmpower_tick_duration_seconds_count":
			tickCount = p.value
		case "vmpower_tick_stage_duration_seconds_count":
			stageSeen[p.labels["stage"]] = p.value > 0
		case "vmpower_vm_watts":
			vmSeen[p.labels["vm"]] = p.value > 0
		}
	}
	if ticksTotal != 3 || tickCount != 3 {
		t.Errorf("ticks_total=%v tick_duration_count=%v, want 3 each", ticksTotal, tickCount)
	}
	// Exact solves on this 2-VM host: every stage except none should
	// have observations — MC-only paths aside, all six stages are marked.
	for _, st := range []string{"snapshot", "meter", "worth", "solve", "normalize", "publish"} {
		if !stageSeen[st] {
			t.Errorf("stage %q has no observations (seen: %v)", st, stageSeen)
		}
	}
	for _, name := range []string{"web", "db"} {
		if !vmSeen[name] {
			t.Errorf("vm_watts{vm=%q} missing or zero", name)
		}
	}

	// Cumulative bucket monotonicity for the tick-latency histogram.
	var prev float64
	var buckets int
	for _, p := range series {
		if p.name != "vmpower_tick_duration_seconds_bucket" {
			continue
		}
		if p.value < prev {
			t.Fatalf("bucket le=%s count %v < previous %v (not cumulative)", p.labels["le"], p.value, prev)
		}
		prev = p.value
		buckets++
	}
	if buckets < 2 {
		t.Fatalf("only %d buckets exposed", buckets)
	}
	if prev != tickCount {
		t.Errorf("+Inf bucket %v != count %v", prev, tickCount)
	}

	// The JSON twin serves the same registry.
	if code := getJSON(t, ts, "/metrics.json", nil); code != http.StatusOK {
		t.Fatalf("/metrics.json code %d", code)
	}

	// And the scrapes themselves showed up in the HTTP metrics.
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if !strings.Contains(string(body2), `vmpower_http_requests_total{path="/metrics"}`) {
		t.Error("self-scrape missing from vmpower_http_requests_total")
	}
}

func TestUninstrumentedHandlerHasNoMetricsRoutes(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := getJSON(t, ts, "/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("/metrics on uninstrumented server: code %d, want 404", code)
	}
	// /healthz is always mounted.
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz code %d", code)
	}
}

func TestHealthzLifecycle(t *testing.T) {
	srv, _, _ := instrumentedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var h HealthJSON
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "starting" {
		t.Fatalf("fresh server: code %d status %q, want 200 starting", code, h.Status)
	}

	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("after tick: code %d status %q, want 200 ok", code, h.Status)
	}
	if !h.Calibrated || h.Ticks != 1 {
		t.Fatalf("health body: %+v", h)
	}

	// Stall: pretend 4 intervals pass with no tick (threshold is 3).
	srv.now = func() time.Time { return time.Now().Add(4 * time.Second) }
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "stalled" {
		t.Fatalf("stalled: code %d status %q, want 503 stalled", code, h.Status)
	}
	if h.LastTickAgeSeconds < 3 {
		t.Fatalf("stalled age = %v, want >= 3", h.LastTickAgeSeconds)
	}
	srv.now = time.Now

	// A failed Step surfaces as an error state until the next good tick.
	srv.core.Failed(errors.New("meter: 32 consecutive dropouts"))
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "error" {
		t.Fatalf("error state: code %d status %q, want 503 error", code, h.Status)
	}
	if h.Error == "" {
		t.Fatal("error state must carry the message")
	}
	if _, err := srv.Step(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("recovered: code %d status %q, want 200 ok", code, h.Status)
	}
}

func TestHealthzStalledBeforeFirstTick(t *testing.T) {
	srv, _, _ := instrumentedServer(t)
	srv.now = func() time.Time { return time.Now().Add(10 * time.Second) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var h HealthJSON
	if code := getJSON(t, ts, "/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "stalled" {
		t.Fatalf("never-ticked stale server: code %d status %q, want 503 stalled", code, h.Status)
	}
}

func TestHistoryRejectsZeroN(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code := getJSON(t, ts, "/api/v1/history?n=0", nil); code != http.StatusBadRequest {
		t.Fatalf("history?n=0 code %d, want 400", code)
	}
}

// TestInstrumentedStepNoGoroutineLeak drives instrumented Steps
// concurrently with metric scrapes and checks the process returns to its
// baseline goroutine count — the tracing/metrics path must not spawn
// anything that outlives the tick. Run with -race to also flush out data
// races between Step's publishing and the scrape's reads.
func TestInstrumentedStepNoGoroutineLeak(t *testing.T) {
	srv, reg, uninstrument := instrumentedServer(t)
	handler := srv.Handler()
	_ = reg

	before := runtime.NumGoroutine()

	done := make(chan struct{})
	stepErr := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := srv.Step(); err != nil {
				stepErr <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				for _, path := range []string{"/metrics", "/metrics.json", "/healthz"} {
					rec := httptest.NewRecorder()
					req := httptest.NewRequest(http.MethodGet, path, nil)
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
						t.Errorf("%s: code %d", path, rec.Code)
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
	uninstrument()

	// The scrapers and stepper are joined; any extra goroutines now are
	// leaks. Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after instrumented steps", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
