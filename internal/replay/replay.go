// Package replay records and replays power-accounting traces: per-tick
// (running coalition, VM states, measured power) tuples in a line-oriented
// JSON format. A recorded trace lets billing and estimation run offline,
// be audited, or be re-disaggregated later under a different policy —
// e.g. re-pricing a month of telemetry after changing the idle-power
// attribution rule — without replaying the workloads themselves.
package replay

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/vm"
)

// Record is one tick of telemetry. The running set is written as a
// bitmask on hosts of up to vm.MaxPlayers VMs and as a list of IDs on
// wider ones, where no mask can hold it.
type Record struct {
	// Tick is the 1 Hz timestamp.
	Tick int `json:"tick"`
	// Coalition is the running VM bitmask (bit i = VM i); zero on wide
	// hosts.
	Coalition uint32 `json:"coalition"`
	// Running lists the running VMs' IDs in ascending order on wide
	// hosts and is nil on narrow ones. It is a pointer so that a wide
	// tick with no VM running still records its empty list: a wide
	// record without it (written before the field existed) has an
	// unknown running set.
	Running *[]int `json:"running,omitempty"`
	// States holds every VM's component state vector (stopped VMs zero).
	States [][]float64 `json:"states"`
	// Power is the measured total machine power in watts.
	Power float64 `json:"power"`
}

// fromSnapshot converts a hypervisor snapshot plus meter reading.
func fromSnapshot(snap hypervisor.Snapshot, power float64) Record {
	states := make([][]float64, len(snap.States))
	for i, s := range snap.States {
		states[i] = s.Vec()
	}
	rec := Record{Tick: snap.Tick, States: states, Power: power}
	if len(snap.States) <= vm.MaxPlayers {
		for i, r := range snap.Running {
			if r {
				rec.Coalition |= 1 << uint(i)
			}
		}
		return rec
	}
	ids := []int{}
	for i, r := range snap.Running {
		if r {
			ids = append(ids, i)
		}
	}
	rec.Running = &ids
	return rec
}

// Snapshot converts the record back into a hypervisor snapshot with one
// running flag per VM, rebuilt from Running when the record lists
// members and from Coalition otherwise. numVMs guards against truncated
// records. A wide record (more than vm.MaxPlayers VMs) without Running
// and a mask naming a VM at or past numVMs are refused: their running
// set is unknown.
func (r Record) Snapshot(numVMs int) (hypervisor.Snapshot, error) {
	if len(r.States) != numVMs {
		return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d has %d states, want %d", r.Tick, len(r.States), numVMs)
	}
	states := make([]vm.State, numVMs)
	for i, vec := range r.States {
		if len(vec) != int(vm.NumComponents) {
			return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d: state %d has %d components", r.Tick, i, len(vec))
		}
		copy(states[i][:], vec)
		if err := states[i].Validate(); err != nil {
			return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d: %w", r.Tick, err)
		}
	}
	snap := hypervisor.Snapshot{Tick: r.Tick, Running: make([]bool, numVMs), States: states}
	switch {
	case r.Running != nil:
		ids := *r.Running
		for j, id := range ids {
			if id < 0 || id >= numVMs || (j > 0 && id <= ids[j-1]) {
				return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d: running IDs must ascend within [0,%d), got %d at %d", r.Tick, numVMs, id, j)
			}
			snap.Running[id] = true
		}
	case numVMs > vm.MaxPlayers:
		return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d: %d VMs need running IDs, and the record has none", r.Tick, numVMs)
	case r.Coalition>>uint(numVMs) != 0:
		return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d: coalition %#x names a VM at or past the %d-VM set", r.Tick, r.Coalition, numVMs)
	default:
		for i := range snap.Running {
			snap.Running[i] = r.Coalition&(1<<uint(i)) != 0
		}
	}
	return snap, nil
}

// Writer streams records as JSON lines.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (tw *Writer) Write(rec Record) error {
	if err := tw.enc.Encode(rec); err != nil {
		return fmt.Errorf("replay: encode: %w", err)
	}
	return nil
}

// WriteSnapshot appends a snapshot + power reading.
func (tw *Writer) WriteSnapshot(snap hypervisor.Snapshot, power float64) error {
	return tw.Write(fromSnapshot(snap, power))
}

// Flush drains buffered output; call before closing the underlying file.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// ErrCorrupt marks undecodable trace lines.
var ErrCorrupt = errors.New("replay: corrupt trace line")

// Read parses a whole trace. Blank lines are skipped; a malformed line
// fails with ErrCorrupt and its line number.
func Read(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrCorrupt, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: read: %w", err)
	}
	return out, nil
}

// Replay re-estimates every record with a trained estimator, invoking fn
// per allocation. The estimator's host defines the VM set; it is not
// ticked — the records carry the states.
func Replay(est *core.Estimator, recs []Record, fn func(*core.Allocation) bool) error {
	if est == nil {
		return errors.New("replay: nil estimator")
	}
	numVMs := est.Host().Set().Len()
	for i, rec := range recs {
		snap, err := rec.Snapshot(numVMs)
		if err != nil {
			return fmt.Errorf("replay: record %d: %w", i, err)
		}
		alloc, err := est.Estimate(snap, rec.Power)
		if err != nil {
			return fmt.Errorf("replay: record %d: %w", i, err)
		}
		if fn != nil && !fn(alloc) {
			return nil
		}
	}
	return nil
}
