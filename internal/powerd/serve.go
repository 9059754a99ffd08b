package powerd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"vmpower/internal/obs"
)

// The high-traffic serving path: every tick publishes an immutable,
// pre-encoded snapshot of the read-mostly endpoints behind one atomic
// pointer swap. Handlers write the cached bytes — zero encodes and zero
// marshal allocations per request — so a scrape storm costs the tick
// loop nothing beyond the one encode it already pays per tick. The
// bytes are produced by the same json.Encoder the legacy per-request
// path used, so cached responses are bit-identical to a fresh encode
// (pinned by TestCachedBytesIdentical).

// servedSnapshot is one tick's pre-encoded HTTP surface. It is immutable
// after publication, apart from the delta bodies that sync.Once fills
// in on first use; a zero body means that endpoint could not encode
// this tick (NaN watts and the like) and the handler falls back to the
// per-request path, which surfaces the error.
type servedSnapshot struct {
	tick       int
	status     cachedBody
	allocation cachedBody
	energy     cachedBody

	// The delta bodies for ?since=tick (a current client: scalars only)
	// and ?since=tick-1 (this tick's changed VMs), the two a poller that
	// keeps up asks for. Each is encoded once, by the first request that
	// needs it, so the tick pays nothing for them.
	wire    *AllocationJSON
	changed []string
	deltas  [2]onceBody // indexed by tick - since
}

// cachedBody is a pre-encoded response body with its Content-Length
// header value, both built once, so serving it allocates nothing. A
// declared length lets net/http send a body past its 2 KiB buffer as is;
// chunk-encoded, it ends with a terminating chunk flushed in a write of
// its own. The zero value means the body could not encode.
type cachedBody struct {
	data []byte
	size []string
}

// cacheJSON encodes v as encodeJSON does; on an encode error it returns
// the zero cachedBody.
func cacheJSON(v any) cachedBody {
	data, err := encodeJSON(v)
	if err != nil {
		return cachedBody{}
	}
	return cachedBody{data: data, size: []string{strconv.Itoa(len(data))}}
}

// onceBody is a response body encoded at most once.
type onceBody struct {
	once sync.Once
	body cachedBody
}

// delta returns the cached body for ?since=since; its data is nil when
// since is not one of the two cached baselines or the body could not
// encode.
func (d *servedSnapshot) delta(since int) cachedBody {
	back := d.tick - since
	if back < 0 || back >= len(d.deltas) {
		return cachedBody{}
	}
	b := &d.deltas[back]
	b.once.Do(func() {
		out := deltaHeader(d.wire, since)
		if back == 1 {
			for _, name := range d.changed {
				out.PerVM[name] = d.wire.PerVM[name]
			}
		}
		b.body = cacheJSON(out)
	})
	return b.body
}

// deltaWindow bounds the per-tick change log behind
// /api/v1/allocation?since=. A client further behind than this many
// ticks gets a full resync (Full=true), the journal's "dropped"
// analogue.
const deltaWindow = 512

// vmDelta records which per-VM wire values changed on one tick relative
// to the previous one (all of them on the first tick).
type vmDelta struct {
	tick    int
	changed []string
}

// AllocationDeltaJSON is the wire form of GET /api/v1/allocation?since=T:
// the scalar header of the latest tick plus only the per-VM entries that
// changed after tick T. A client holding the full allocation of tick T
// overwrites the scalars and upserts PerVM to reconstruct the full
// allocation of Tick exactly (pinned by TestAllocationDeltaComposes);
// it then passes Tick as the next ?since=. Full marks a resync — the
// requested tick predates the retained window (or a daemon restart), so
// PerVM carries every VM.
type AllocationDeltaJSON struct {
	Since            int                `json:"since"`
	Tick             int                `json:"tick"`
	Full             bool               `json:"full,omitempty"`
	MeasuredWatts    float64            `json:"measured_watts"`
	DynamicWatts     float64            `json:"dynamic_watts"`
	Method           string             `json:"method"`
	Degraded         bool               `json:"degraded,omitempty"`
	DegradedReason   string             `json:"degraded_reason,omitempty"`
	HoldoverAgeTicks int                `json:"holdover_age_ticks,omitempty"`
	RejectedSamples  int                `json:"rejected_samples,omitempty"`
	PerVM            map[string]float64 `json:"per_vm_watts"`
}

// encodeJSON renders v exactly as writeJSON's per-request encoder does
// (same encoder, same trailing newline), into a fresh buffer the cached
// snapshot owns forever.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jsonCType is the Content-Type header value shared by every cached
// response. Assigning the shared slice directly (rather than
// Header().Set) keeps the cached GET path allocation-free.
var jsonCType = []string{"application/json"}

// writeCached serves a pre-encoded body. Zero allocations on the happy
// path; a failed write (client gone mid-response) is counted like an
// encode failure.
func (s *Server) writeCached(w http.ResponseWriter, body cachedBody) {
	h := w.Header()
	h["Content-Type"] = jsonCType
	h["Content-Length"] = body.size
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body.data); err != nil {
		s.noteEncodeError(err)
	}
}

// writeJSON is the per-request fallback (pre-first-tick, error bodies,
// delta responses): encode straight onto the wire. Encode errors — a
// value that cannot marshal, or a client that hung up mid-body — used to
// be silently discarded; they are now counted in
// vmpower_http_encode_errors_total and logged at debug.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.noteEncodeError(err)
	}
}

func (s *Server) noteEncodeError(err error) {
	o := s.telemetry.Load()
	if o == nil {
		return
	}
	o.encodeErrs.Inc()
	if o.log.Enabled(obs.LevelDebug) {
		o.log.Debug("response encode failed", "err", err)
	}
}

// statusLocked builds the status wire form from published tick state.
// Callers hold s.mu (any mode).
func (s *Server) statusLocked() StatusJSON {
	return StatusJSON{
		Calibrated:         s.est.Trained(),
		IdleWatts:          s.est.IdlePower(),
		VMs:                append([]string(nil), s.names...),
		Ticks:              s.ticks,
		Degraded:           s.latest != nil && s.latest.Degraded,
		DegradedTicks:      s.degradedTicks,
		RejectedSamples:    s.rejected,
		LastDegradedReason: s.lastDegraded,
	}
}

// energyLocked builds the energy wire form. Callers hold s.mu (any mode).
func (s *Server) energyLocked() EnergyJSON {
	out := EnergyJSON{
		Seconds: s.energySeconds,
		PerVMWh: make(map[string]float64, len(s.energyWs)),
	}
	for name, ws := range s.energyWs {
		wh := ws / 3600
		out.PerVMWh[name] = wh
		out.TotalWh += wh
	}
	return out
}

// publishLocked pre-encodes the tick's read-mostly endpoints and swaps
// the served snapshot, and appends the tick's changed-VM set to the
// bounded delta log. Called from record with s.mu held; the previous
// snapshot stays valid for requests already holding its pointer.
func (s *Server) publishLocked(wire *AllocationJSON) {
	changed := make([]string, 0, len(s.names))
	for _, name := range s.names {
		w := wire.PerVM[name]
		if prev, ok := s.prevPerVM[name]; !ok || prev != w {
			changed = append(changed, name)
		}
		s.prevPerVM[name] = w
	}
	s.deltaLog = append(s.deltaLog, vmDelta{tick: wire.Tick, changed: changed})
	if len(s.deltaLog) > deltaWindow {
		s.deltaLog = s.deltaLog[len(s.deltaLog)-deltaWindow:]
	}

	snap := &servedSnapshot{tick: wire.Tick, wire: wire, changed: changed}
	// A body that cannot encode (NaN watts would be one) leaves its slot
	// zero: the handler falls back to the per-request path, which counts
	// the failure per request instead of silently serving stale bytes.
	snap.allocation = cacheJSON(wire)
	snap.status = cacheJSON(s.statusLocked())
	snap.energy = cacheJSON(s.energyLocked())
	s.served.Store(snap)
}

// deltaHeader is the delta from since to latest with no per-VM entries
// yet: the scalars of latest and an empty PerVM map.
func deltaHeader(latest *AllocationJSON, since int) AllocationDeltaJSON {
	return AllocationDeltaJSON{
		Since:            since,
		Tick:             latest.Tick,
		MeasuredWatts:    latest.MeasuredWatts,
		DynamicWatts:     latest.DynamicWatts,
		Method:           latest.Method,
		Degraded:         latest.Degraded,
		DegradedReason:   latest.DegradedReason,
		HoldoverAgeTicks: latest.HoldoverAgeTicks,
		RejectedSamples:  latest.RejectedSamples,
		PerVM:            map[string]float64{},
	}
}

// handleAllocationDelta serves GET /api/v1/allocation?since=T. The
// response is O(changed VMs since T), not O(roster): scalars always,
// per-VM entries only for VMs whose wire value changed after T. A client
// that is current or one tick behind gets the published snapshot's
// cached body; older baselines are composed from the delta log.
func (s *Server) handleAllocationDelta(w http.ResponseWriter, raw string) {
	since, err := strconv.Atoi(raw)
	if err != nil || since < 0 {
		s.writeJSON(w, http.StatusBadRequest, errorJSON{Error: "since must be a non-negative integer"})
		return
	}
	if d := s.served.Load(); d != nil {
		if body := d.delta(since); body.data != nil {
			s.writeCached(w, body)
			return
		}
	}
	s.mu.RLock()
	latest := s.latest
	if latest == nil {
		s.mu.RUnlock()
		s.writeJSON(w, http.StatusNotFound, errorJSON{Error: "no allocation yet"})
		return
	}
	out := deltaHeader(latest, since)
	switch {
	case since >= latest.Tick:
		// Current — empty delta. A client ahead of the daemon (since from
		// a previous incarnation) gets a full resync instead: its baseline
		// tick numbering means nothing here.
		if since > latest.Tick {
			out.Full = true
			for name, w := range latest.PerVM {
				out.PerVM[name] = w
			}
		}
	case len(s.deltaLog) > 0 && s.deltaLog[0].tick <= since+1:
		for _, d := range s.deltaLog {
			if d.tick <= since {
				continue
			}
			for _, name := range d.changed {
				out.PerVM[name] = latest.PerVM[name]
			}
		}
	default:
		// since predates the retained window: full resync.
		out.Full = true
		for name, w := range latest.PerVM {
			out.PerVM[name] = w
		}
	}
	s.mu.RUnlock()
	s.writeJSON(w, http.StatusOK, out)
}
