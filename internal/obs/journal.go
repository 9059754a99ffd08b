package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Event is one entry in a tick event journal: a state transition worth
// reconstructing later (tier switch, degradation edge, quarantine,
// readmission, audit violation). Seq is assigned by the journal and is
// strictly monotonic from 1, so a scraper that remembers the last Seq it
// saw gets a causally ordered delta from /api/v1/events?since=<seq>
// instead of re-reading full status.
type Event struct {
	Seq  uint64 `json:"seq"`
	Tick int    `json:"tick"`
	// Type is a small fixed vocabulary: health edges ("tier_switch",
	// "degraded", "recovered", "quarantine", "readmit"), daemon events
	// ("audit_violation", "flight_dump"), and the VM lifecycle
	// ("vm_poweron", "vm_poweroff", "vm_hotplug", "vm_remove",
	// "migrate_start", "migrate_finish", "drain_start", "drain_finish",
	// "undrain"). Lifecycle events are journaled exactly once: the fleet
	// drains each into a single tick.
	Type string `json:"type"`
	// Subject scopes the event when the producer manages several
	// entities (fleetd uses "host:<i>"); empty for daemon-wide events.
	Subject string `json:"subject,omitempty"`
	// Detail is a human-readable explanation (old tier → new tier,
	// degradation reason, violation text).
	Detail string `json:"detail,omitempty"`
}

// Journal is an append-only bounded event log: a mutex-guarded ring that
// keeps the most recent Capacity events and assigns monotonic sequence
// numbers forever. Appends never block on readers and never fail; old
// events are silently evicted, with the eviction visible to readers as
// EventsJSON.Dropped. All methods are nil-safe no-ops.
type Journal struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // seq the next Append will get (starts at 1)
}

// DefaultJournalCapacity bounds a daemon journal when the caller passes
// a non-positive capacity. Transitions are rare (order of one per
// degradation episode), so 1024 covers hours of chaos.
const DefaultJournalCapacity = 1024

// NewJournal builds a journal holding the last capacity events
// (<= 0 uses DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, capacity), next: 1}
}

// Append records one event and returns its sequence number (0 on a nil
// journal). Safe for concurrent use.
func (j *Journal) Append(tick int, typ, subject, detail string) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	seq := j.next
	j.next++
	j.buf[int((seq-1)%uint64(len(j.buf)))] = Event{
		Seq: seq, Tick: tick, Type: typ, Subject: subject, Detail: detail,
	}
	j.mu.Unlock()
	return seq
}

// EventsJSON is the wire form of a journal read: the buffered events
// with Seq > Since in ascending order. Next is the value to pass as
// ?since= on the following poll; Dropped counts events that matched the
// query but were already evicted from the ring.
type EventsJSON struct {
	Since   uint64  `json:"since"`
	Next    uint64  `json:"next"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Since returns the buffered events with Seq > since, oldest first. A
// nil journal returns an empty page with Next 0.
func (j *Journal) Since(since uint64) EventsJSON {
	out := EventsJSON{Since: since, Events: []Event{}}
	if j == nil {
		return out
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out.Next = j.next - 1
	first := uint64(1)
	if j.next > uint64(len(j.buf))+1 {
		first = j.next - uint64(len(j.buf))
	}
	if since+1 < first {
		out.Dropped = first - since - 1
	}
	for seq := max64(first, since+1); seq < j.next; seq++ {
		out.Events = append(out.Events, j.buf[int((seq-1)%uint64(len(j.buf)))])
	}
	return out
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Handler serves the journal as GET ?since=<seq> (default 0: everything
// still buffered). Mount at /api/v1/events.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		since := uint64(0)
		if raw := r.URL.Query().Get("since"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				http.Error(w, `{"error":"since must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			since = v
		}
		w.Header().Set("Content-Type", "application/json")
		WriteJSONIndent(w, j.Since(since))
	})
}

// WriteJSONIndent writes v as indented JSON: the shared encoder behind
// the journal and flight-recorder handlers and the daemons' triggered
// dumps (none of which is a hot path).
func WriteJSONIndent(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
