// Package serve is the HTTP serving core that powerd and fleetd share:
// pre-encoded response bodies with their declared length, the cached and
// per-request JSON writers with encode-error accounting, the bounded
// per-tick change log behind ?since= delta reads and its per-snapshot
// cache (delta.go), the per-path request metrics, the telemetry routes,
// the flight-dump trigger and the /healthz rungs both daemons share.
//
// Each daemon keeps its wire types, its own metric families, the rest of
// its health ladder and its error texts; everything here is one
// implementation of a decision both daemons make the same way.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmpower/internal/obs"
)

// Body is a pre-encoded JSON response body with its Content-Length header
// value, both built once, so serving it allocates nothing. A declared
// length lets net/http send a body past its 2 KiB buffer as is;
// chunk-encoded, it ends with a terminating chunk flushed in a write of
// its own. The zero Body stands for a value that could not encode.
type Body struct {
	data []byte
	size []string
}

// Encode renders v exactly as WriteJSON's per-request encoder does (same
// encoder, same trailing newline), so a cached body is bit-identical to a
// fresh encode of the same value. It returns the zero Body when v cannot
// encode (NaN watts would be one).
func Encode(v any) Body {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return Body{}
	}
	return Body{data: buf.Bytes(), size: []string{strconv.Itoa(buf.Len())}}
}

// OK reports whether the body encoded.
func (b Body) OK() bool { return b.data != nil }

// Telemetry is the observability surface both daemons share: registry,
// logger, expected cadence, event journal and flight recorder, plus the
// encode-error counter, the tick-skew gauge and the flight-dump trigger.
// A daemon embeds it in its own telemetry next to its own metric
// families.
type Telemetry struct {
	Reg *obs.Registry
	Log *obs.Logger
	// Interval is the expected Step cadence; /healthz reports a stall
	// past three of them.
	Interval time.Duration
	Journal  *obs.Journal
	Flight   *obs.FlightRecorder

	encodeErrs *obs.Counter
	tickSkew   *obs.Gauge
	lastDump   atomic.Pointer[obs.FlightDump]

	// dumpMu guards pendingDump: audit callbacks may fire from fleet
	// worker goroutines.
	dumpMu      sync.Mutex
	pendingDump string

	prevTickWall time.Time // Step goroutine only
}

// NewTelemetry registers the shared families on reg (encode errors and
// tick skew) and starts an event journal. interval <= 0 means 1 s.
func NewTelemetry(reg *obs.Registry, log *obs.Logger, interval time.Duration, flight *obs.FlightRecorder) *Telemetry {
	if interval <= 0 {
		interval = time.Second
	}
	return &Telemetry{
		Reg:      reg,
		Log:      log,
		Interval: interval,
		Journal:  obs.NewJournal(0),
		Flight:   flight,
		encodeErrs: reg.Counter("vmpower_http_encode_errors_total",
			"HTTP response bodies that failed to encode or write"),
		tickSkew: reg.Gauge("vmpower_tick_skew_seconds",
			"last tick-to-tick wall spacing minus the configured interval"),
	}
}

// NoteSkew sets the skew gauge from the wall spacing since the previous
// tick. Step goroutine only.
func (t *Telemetry) NoteSkew(now time.Time) {
	if !t.prevTickWall.IsZero() {
		t.tickSkew.Set(now.Sub(t.prevTickWall).Seconds() - t.Interval.Seconds())
	}
	t.prevTickWall = now
}

// ArmDump requests a flight dump once the current tick's record has
// landed, so the dump holds the tick that tripped it; the first request
// of a tick names the dump. Safe for concurrent use.
func (t *Telemetry) ArmDump(reason string) {
	t.dumpMu.Lock()
	if t.pendingDump == "" {
		t.pendingDump = reason
	}
	t.dumpMu.Unlock()
}

// FireDump takes the dump armed during tick, if any: it keeps it for
// /debug/flight?trigger=last, journals it and logs it. Call it on the
// Step goroutine after the tick's flight record.
func (t *Telemetry) FireDump(tick int) {
	t.dumpMu.Lock()
	reason := t.pendingDump
	t.pendingDump = ""
	t.dumpMu.Unlock()
	if reason == "" {
		return
	}
	t.lastDump.Store(t.Flight.Dump(reason))
	t.Journal.Append(tick, "flight_dump", "", reason)
	t.Log.Warn("flight dump triggered", "tick", tick, "reason", reason)
}

// Core is the serving state a daemon's Server holds: the telemetry its
// Instrument installed. The zero Core serves uninstrumented.
type Core struct {
	tel atomic.Pointer[Telemetry]
}

// Instrument installs t; nil uninstruments.
func (c *Core) Instrument(t *Telemetry) { c.tel.Store(t) }

// jsonCType is the Content-Type header value shared by every cached
// response. Assigning the shared slice directly (rather than
// Header().Set) keeps the cached GET path allocation-free.
var jsonCType = []string{"application/json"}

// WriteCached serves a pre-encoded body with status 200. It allocates
// nothing; a failed write (client gone mid-response) is counted like an
// encode failure.
func (c *Core) WriteCached(w http.ResponseWriter, b Body) {
	h := w.Header()
	h["Content-Type"] = jsonCType
	h["Content-Length"] = b.size
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b.data); err != nil {
		c.noteEncodeError(err)
	}
}

// WriteJSON is the per-request path (before the first tick, error
// bodies, uncached deltas): encode straight onto the wire. A value that
// cannot marshal, or a client that hung up mid-body, is counted in
// vmpower_http_encode_errors_total and logged at debug.
func (c *Core) WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		c.noteEncodeError(err)
	}
}

// errorJSON is the wire form of every error body.
type errorJSON struct {
	Error string `json:"error"`
}

// WriteError writes {"error": msg} with status.
func (c *Core) WriteError(w http.ResponseWriter, status int, msg string) {
	c.WriteJSON(w, status, errorJSON{Error: msg})
}

func (c *Core) noteEncodeError(err error) {
	t := c.tel.Load()
	if t == nil {
		return
	}
	t.encodeErrs.Inc()
	if t.Log.Enabled(obs.LevelDebug) {
		t.Log.Debug("response encode failed", "err", err)
	}
}

// Handle mounts h at GET path. On an instrumented core it registers the
// path's request counter and latency histogram and wraps h to feed them,
// so the route table is the label set; uninstrumented, h is mounted as
// is.
func (c *Core) Handle(mux *http.ServeMux, path string, h http.HandlerFunc) {
	t := c.tel.Load()
	if t == nil {
		mux.HandleFunc("GET "+path, h)
		return
	}
	reqs := t.Reg.Counter("vmpower_http_requests_total", "HTTP requests served", obs.L("path", path))
	lat := t.Reg.Histogram("vmpower_http_request_duration_seconds",
		"HTTP request latency", obs.DefDurationBuckets, obs.L("path", path))
	mux.HandleFunc("GET "+path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		reqs.Inc()
		lat.Observe(time.Since(start).Seconds())
	})
}

// Mux returns a mux for the daemon's routes. When the core is
// instrumented it already serves GET /metrics (Prometheus text format),
// GET /metrics.json, GET /api/v1/events?since=<seq> (the tick event
// journal) and GET /debug/flight (the flight-recorder ring; with
// ?trigger=last, the most recent triggered dump instead).
func (c *Core) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	if t := c.tel.Load(); t != nil {
		c.Handle(mux, "/metrics", t.Reg.Handler().ServeHTTP)
		c.Handle(mux, "/metrics.json", t.Reg.HandlerJSON().ServeHTTP)
		c.Handle(mux, "/api/v1/events", t.Journal.Handler().ServeHTTP)
		c.Handle(mux, "/debug/flight", c.handleFlight)
	}
	return mux
}

func (c *Core) handleFlight(w http.ResponseWriter, r *http.Request) {
	t := c.tel.Load()
	if t == nil {
		c.WriteError(w, http.StatusNotFound, "not instrumented")
		return
	}
	if r.URL.Query().Get("trigger") == "last" {
		d := t.lastDump.Load()
		if d == nil {
			c.WriteError(w, http.StatusNotFound, "no triggered dump yet")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		obs.WriteJSONIndent(w, d)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.Flight.WriteJSON(w, "http")
}

// DumpFlight writes the flight-recorder ring as indented JSON, the
// SIGQUIT path. It fails only when uninstrumented: no recorder exists.
func (c *Core) DumpFlight(w io.Writer, reason string) error {
	t := c.tel.Load()
	if t == nil {
		return errors.New("serve: not instrumented; no flight recorder")
	}
	t.Flight.WriteJSON(w, reason)
	return nil
}

// Health is the verdict of the /healthz rungs both daemons share, most
// severe first: "error" (the last Step failed), "starting" (no tick
// yet), "stalled" (no tick for more than three intervals; 503). Status
// is empty while ticks land on schedule, and the daemon's own rungs
// decide.
type Health struct {
	Status string
	Code   int
	Error  string
	// AgeSeconds is the age of the last tick, 0 before the first one.
	AgeSeconds float64
}

// Health applies the shared rungs to a daemon's tick bookkeeping: ticks
// completed, when the last one landed, the last Step error ("" after a
// good tick) and when the daemon was created. The stall threshold is
// three Instrument intervals, or 3 s uninstrumented.
func (c *Core) Health(now, createdAt time.Time, ticks int, lastTickAt time.Time, lastErr string) Health {
	interval := time.Second
	if t := c.tel.Load(); t != nil {
		interval = t.Interval
	}
	stallAfter := 3 * interval
	switch {
	case lastErr != "":
		return Health{Status: "error", Code: http.StatusServiceUnavailable, Error: lastErr}
	case ticks == 0:
		if now.Sub(createdAt) > stallAfter {
			return Health{Status: "stalled", Code: http.StatusServiceUnavailable}
		}
		return Health{Status: "starting", Code: http.StatusOK}
	}
	h := Health{Code: http.StatusOK, AgeSeconds: now.Sub(lastTickAt).Seconds()}
	if now.Sub(lastTickAt) > stallAfter {
		h.Status, h.Code = "stalled", http.StatusServiceUnavailable
	}
	return h
}
