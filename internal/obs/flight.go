package obs

import (
	"io"
	"net/http"
	"sync"
)

// FlightRecord is one tick's provenance: everything a post-mortem of a
// bad bill needs to replay the engine's decision — the inputs (states,
// measured watts), the solver tier and why the gate picked it, the
// solve's shape and the model residual, the degradation bookkeeping, the audit
// residual, and the outputs (per-VM φ and energy increments). Slices use
// plain float64/string so a dump round-trips bit-identically through
// encoding/json (shortest-representation float encoding is exact).
type FlightRecord struct {
	Seq  uint64 `json:"seq"`
	Tick int    `json:"tick"`
	// UnixNanos is the wall clock at record time, stamped by the caller
	// (the recorder itself never reads the clock on the hot path).
	UnixNanos     int64   `json:"unix_nanos,omitempty"`
	MeasuredWatts float64 `json:"measured_watts"`
	DynamicWatts  float64 `json:"dynamic_watts"`
	// Tier is the solver tier that produced φ ("exact" or
	// "montecarlo"); TierReason is why the gate picked it.
	Tier       string `json:"tier"`
	TierReason string `json:"tier_reason,omitempty"`
	// SymClasses, DirtyVMs, Evaluated and Reused describe the tick's
	// solve (core.Provenance): the groups the exact tier solved over,
	// zero, the count vectors its correction search evaluated, and zero.
	SymClasses int `json:"sym_classes,omitempty"`
	DirtyVMs   int `json:"dirty_vms"`
	Evaluated  int `json:"evaluated"`
	Reused     int `json:"reused"`
	// MaxStdErrWatts is the largest per-VM standard error of a
	// Monte-Carlo tick's shares (core.Provenance); absent on exact
	// ticks.
	MaxStdErrWatts float64 `json:"max_stderr_watts,omitempty"`
	// ModelResidualWatts is δ = dynamic − the model's worth of the
	// running set, and ModelResidualRel is δ/dynamic (core.Provenance).
	ModelResidualWatts float64 `json:"model_residual_watts"`
	ModelResidualRel   float64 `json:"model_residual_rel"`
	// Degradation bookkeeping, mirroring core.Allocation.
	Degraded         bool   `json:"degraded,omitempty"`
	DegradedReason   string `json:"degraded_reason,omitempty"`
	HoldoverAgeTicks int    `json:"holdover_age_ticks,omitempty"`
	RejectedSamples  int    `json:"rejected_samples,omitempty"`
	// EfficiencyResidualWatts is |Σφ − dynamic| as measured by the
	// invariant auditor (0 when unaudited).
	EfficiencyResidualWatts float64 `json:"efficiency_residual_watts"`
	// Names, PerVMWatts and PerVMEnergyWs are aligned: VM i's name, its
	// attributed watts this tick, and the watt-seconds this tick added to
	// its energy counter. A fleet recorder lists only accounted VMs.
	Names         []string  `json:"names,omitempty"`
	PerVMWatts    []float64 `json:"per_vm_watts"`
	PerVMEnergyWs []float64 `json:"per_vm_energy_ws,omitempty"`
	// States are the snapshot's per-VM resource vectors (row i = VM i),
	// empty when the producer has no per-VM snapshot (fleet rollups).
	States [][]float64 `json:"states,omitempty"`
}

// FlightRecorder is a fixed-size, allocation-free ring of FlightRecords:
// every tick is recorded into preallocated slots (Record copies values,
// never slice headers), and the ring is serialized to JSON only when a
// trigger fires — invariant violation, quarantine, SIGQUIT, or an HTTP
// request — so post-mortems never depend on having had debug logging on.
// All methods are nil-safe; Record and Dump are mutex-guarded and safe
// for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	slots []flightSlot
	next  uint64 // records written so far; next seq is next+1
}

// flightSlot is one preallocated ring entry: the record plus the backing
// rows its States slice re-points into on every overwrite.
type flightSlot struct {
	rec  FlightRecord
	rows [][]float64 // maxVMs rows × resources, allocated once
}

// DefaultFlightCapacity is the ring size when the caller passes a
// non-positive capacity: ~4 minutes of 1 Hz ticks, enough to span any
// degradation episode the chaos harnesses produce.
const DefaultFlightCapacity = 256

// NewFlightRecorder preallocates a ring of capacity records (<= 0 uses
// DefaultFlightCapacity), each able to hold maxVMs VMs with resources
// state dimensions without allocating.
func NewFlightRecorder(capacity, maxVMs, resources int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	if maxVMs < 0 {
		maxVMs = 0
	}
	if resources < 0 {
		resources = 0
	}
	f := &FlightRecorder{slots: make([]flightSlot, capacity)}
	for i := range f.slots {
		s := &f.slots[i]
		s.rec.Names = make([]string, 0, maxVMs)
		s.rec.PerVMWatts = make([]float64, 0, maxVMs)
		s.rec.PerVMEnergyWs = make([]float64, 0, maxVMs)
		s.rec.States = make([][]float64, 0, maxVMs)
		s.rows = make([][]float64, maxVMs)
		for r := range s.rows {
			s.rows[r] = make([]float64, 0, resources)
		}
	}
	return f
}

// Record copies rec into the next ring slot and returns its sequence
// number (0 on a nil recorder). rec stays caller-owned — keep one
// scratch FlightRecord per producer goroutine and refill it each tick.
// Within the preallocated capacity (maxVMs, resources) the copy performs
// zero allocations; oversized ticks fall back to growing the slot.
func (f *FlightRecorder) Record(rec *FlightRecord) uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	f.next++
	seq := f.next
	s := &f.slots[int((seq-1)%uint64(len(f.slots)))]
	dst := &s.rec
	names, watts, energy, states := dst.Names, dst.PerVMWatts, dst.PerVMEnergyWs, dst.States
	*dst = *rec
	dst.Seq = seq
	dst.Names = append(names[:0], rec.Names...)
	dst.PerVMWatts = append(watts[:0], rec.PerVMWatts...)
	dst.PerVMEnergyWs = append(energy[:0], rec.PerVMEnergyWs...)
	states = states[:0]
	for i, row := range rec.States {
		if i < len(s.rows) {
			s.rows[i] = append(s.rows[i][:0], row...)
			states = append(states, s.rows[i])
		} else {
			states = append(states, append([]float64(nil), row...))
		}
	}
	dst.States = states
	f.mu.Unlock()
	return seq
}

// Len returns the number of records currently buffered.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < uint64(len(f.slots)) {
		return int(f.next)
	}
	return len(f.slots)
}

// FlightDump is the JSON form of a triggered dump: the buffered records
// oldest-first, deep-copied so later ticks cannot mutate them.
type FlightDump struct {
	// Reason names the trigger ("audit: ...", "quarantine: host 2",
	// "SIGQUIT", "http").
	Reason string `json:"reason,omitempty"`
	// NextSeq is the sequence number the next record will get.
	NextSeq uint64         `json:"next_seq"`
	Records []FlightRecord `json:"records"`
}

// Dump snapshots the ring oldest-first. This is the triggered (cold)
// path and allocates freely; Record stays allocation-free.
func (f *FlightRecorder) Dump(reason string) *FlightDump {
	d := &FlightDump{Reason: reason, Records: []FlightRecord{}}
	if f == nil {
		return d
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d.NextSeq = f.next + 1
	first := uint64(1)
	if f.next > uint64(len(f.slots)) {
		first = f.next - uint64(len(f.slots)) + 1
	}
	for seq := first; seq <= f.next; seq++ {
		src := &f.slots[int((seq-1)%uint64(len(f.slots)))].rec
		rec := *src
		rec.Names = append([]string(nil), src.Names...)
		rec.PerVMWatts = append([]float64(nil), src.PerVMWatts...)
		rec.PerVMEnergyWs = append([]float64(nil), src.PerVMEnergyWs...)
		rec.States = make([][]float64, len(src.States))
		for i, row := range src.States {
			rec.States[i] = append([]float64(nil), row...)
		}
		d.Records = append(d.Records, rec)
	}
	return d
}

// WriteJSON dumps the ring as indented JSON to w.
func (f *FlightRecorder) WriteJSON(w io.Writer, reason string) {
	WriteJSONIndent(w, f.Dump(reason))
}

// Handler serves a fresh dump on every GET (mount at /debug/flight).
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		f.WriteJSON(w, "http")
	})
}
