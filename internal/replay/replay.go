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

// Record is one tick of telemetry.
type Record struct {
	// Tick is the 1 Hz timestamp.
	Tick int `json:"tick"`
	// Coalition is the running VM bitmask; zero on hosts of more than
	// vm.MaxPlayers VMs, where no mask can represent the set.
	Coalition uint32 `json:"coalition"`
	// Running lists the running VMs' IDs in ascending order on those
	// wide hosts, and is nil otherwise, so narrow traces keep their
	// bytes. It is a pointer so that a wide tick with no VM running
	// still records its empty list: records written before the field
	// existed carry none, and their running set is unknown.
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
	rec := Record{
		Tick:      snap.Tick,
		Coalition: uint32(snap.Coalition),
		States:    states,
		Power:     power,
	}
	if len(snap.States) > vm.MaxPlayers {
		ids := []int{}
		for i, r := range snap.Running {
			if r {
				ids = append(ids, i)
			}
		}
		rec.Running = &ids
	}
	return rec
}

// Snapshot converts the record back into a hypervisor snapshot, with
// running flags rebuilt from Running when the record lists members.
// numVMs guards against truncated records.
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
	snap := hypervisor.Snapshot{
		Tick:      r.Tick,
		Coalition: vm.Coalition(r.Coalition),
		States:    states,
	}
	if r.Running != nil {
		ids := *r.Running
		snap.Running = make([]bool, numVMs)
		for j, id := range ids {
			if id < 0 || id >= numVMs || (j > 0 && id <= ids[j-1]) {
				return hypervisor.Snapshot{}, fmt.Errorf("replay: record at tick %d: running IDs must ascend within [0,%d), got %d at %d", r.Tick, numVMs, id, j)
			}
			snap.Running[id] = true
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
