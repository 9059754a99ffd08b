// Package vm defines the domain model of the power-accounting game:
// virtual machines, their fixed-resource types (the paper's Table IV),
// per-component state vectors c_i, and coalitions of VMs represented as
// bitmasks over a VM set N.
package vm

import (
	"errors"
	"fmt"
	"math"
)

// Component indexes the entries of a state vector c_i. The paper's
// evaluation uses CPU utilization only (Sec. VI-C) but the method and this
// implementation carry memory and disk states as well.
type Component int

// Components of a VM state vector, in vector order.
const (
	CPU           Component = iota // normalized CPU utilization, 0..1 per vCPU aggregate
	Memory                         // normalized resident-memory fraction, 0..1
	DiskIO                         // normalized disk I/O rate, 0..1
	NumComponents                  // number of tracked components (k in the paper)
)

// String returns the component name.
func (c Component) String() string {
	switch c {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case DiskIO:
		return "diskio"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// State is a VM component-state vector c_i = [c_i^1 ... c_i^k].
// Entries are normalized to [0, 1]. For a multi-vCPU VM the CPU entry is
// the mean utilization across its vCPUs (so a 4-vCPU VM fully busy has
// CPU state 1.0; the per-type power models absorb the vCPU count).
type State [NumComponents]float64

// ErrStateRange is returned when a state entry is outside [0, 1] or NaN.
var ErrStateRange = errors.New("vm: state entry outside [0,1]")

// Validate checks all entries are finite and within [0, 1].
func (s State) Validate() error {
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			return fmt.Errorf("%w: %s=%g", ErrStateRange, Component(i), v)
		}
	}
	return nil
}

// Add returns the component-wise sum of s and t. Sums are used to build
// VHC aggregate vectors v_j = Σ c_i and may exceed 1.
func (s State) Add(t State) State {
	var out State
	for i := range s {
		out[i] = s[i] + t[i]
	}
	return out
}

// Quantize rounds every entry to the given resolution (e.g. 0.01, the
// paper's normalizing resolution). A non-positive resolution is a no-op.
func (s State) Quantize(resolution float64) State {
	if resolution <= 0 {
		return s
	}
	var out State
	for i, v := range s {
		out[i] = math.Round(v/resolution) * resolution
	}
	return out
}

// IsIdle reports whether every component is (quantized-)zero.
func (s State) IsIdle() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// Vec returns the state as a plain slice (a copy), in Component order.
func (s State) Vec() []float64 {
	out := make([]float64, NumComponents)
	copy(out, s[:])
	return out
}

// TypeID identifies a VM type (VHC class). Types are dense small integers.
type TypeID int

// Type is a fixed VM configuration, mirroring the paper's Table IV.
type Type struct {
	ID       TypeID
	Name     string
	VCPUs    int
	MemoryGB int
	DiskGB   int
}

// Catalog is the ordered set of VM types available on a platform. The
// paper's evaluation uses four types (Table IV); datacenters keep this
// small ("no more than 5 fixed configuration options").
type Catalog []Type

// PaperCatalog returns the paper's Table IV VM types.
func PaperCatalog() Catalog {
	return Catalog{
		{ID: 0, Name: "VM1", VCPUs: 1, MemoryGB: 2, DiskGB: 20},
		{ID: 1, Name: "VM2", VCPUs: 2, MemoryGB: 4, DiskGB: 40},
		{ID: 2, Name: "VM3", VCPUs: 4, MemoryGB: 8, DiskGB: 80},
		{ID: 3, Name: "VM4", VCPUs: 8, MemoryGB: 14, DiskGB: 100},
	}
}

// Validate checks the catalog IDs are dense 0..len-1 and configs sane.
func (c Catalog) Validate() error {
	for i, t := range c {
		if int(t.ID) != i {
			return fmt.Errorf("vm: catalog entry %d has ID %d, want dense IDs", i, t.ID)
		}
		if t.VCPUs <= 0 {
			return fmt.Errorf("vm: type %s has %d vCPUs", t.Name, t.VCPUs)
		}
		if t.MemoryGB <= 0 || t.DiskGB <= 0 {
			return fmt.Errorf("vm: type %s has non-positive memory/disk", t.Name)
		}
	}
	return nil
}

// ByID returns the type with the given ID.
func (c Catalog) ByID(id TypeID) (Type, error) {
	if int(id) < 0 || int(id) >= len(c) {
		return Type{}, fmt.Errorf("vm: unknown type ID %d (catalog has %d types)", id, len(c))
	}
	return c[id], nil
}

// ID identifies a VM instance within a set N. IDs are dense indices
// 0..n-1 so coalitions can be bitmasks.
type ID int

// VM is a virtual machine instance: identity plus type.
type VM struct {
	ID   ID
	Name string
	Type TypeID
}

// Set is the ordered VM set N = {0..n-1} of a power-accounting game.
type Set struct {
	vms     []VM
	catalog Catalog
}

// NewSet builds a VM set over the given catalog. VM IDs are assigned by
// position. It validates that every VM references a catalog type.
func NewSet(catalog Catalog, vms []VM) (*Set, error) {
	if err := catalog.Validate(); err != nil {
		return nil, err
	}
	if len(vms) > MaxVMs {
		return nil, fmt.Errorf("vm: %d VMs exceeds the %d-VM limit", len(vms), MaxVMs)
	}
	out := make([]VM, len(vms))
	for i, v := range vms {
		if _, err := catalog.ByID(v.Type); err != nil {
			return nil, fmt.Errorf("vm %q: %w", v.Name, err)
		}
		v.ID = ID(i)
		if v.Name == "" {
			v.Name = fmt.Sprintf("vm%d", i)
		}
		out[i] = v
	}
	return &Set{vms: out, catalog: catalog}, nil
}

// Len returns n, the number of VMs.
func (s *Set) Len() int { return len(s.vms) }

// Append grows the set by one VM (hot-plug) and returns its dense ID.
// The new VM's ID is assigned by position like NewSet's. Growing the set
// invalidates anything compiled against the old n (coalition masks over
// the old width stay valid — they simply never contain the new member) —
// callers owning derived structures (worth plans, scratch tables) must
// rebuild them. Not safe concurrently with readers; mutate only between
// estimation ticks.
func (s *Set) Append(v VM) (ID, error) {
	if len(s.vms) >= MaxVMs {
		return 0, fmt.Errorf("vm: set already at the %d-VM limit", MaxVMs)
	}
	if _, err := s.catalog.ByID(v.Type); err != nil {
		return 0, fmt.Errorf("vm %q: %w", v.Name, err)
	}
	v.ID = ID(len(s.vms))
	if v.Name == "" {
		v.Name = fmt.Sprintf("vm%d", len(s.vms))
	}
	s.vms = append(s.vms, v)
	return v.ID, nil
}

// Catalog returns the type catalog backing the set.
func (s *Set) Catalog() Catalog { return s.catalog }

// VM returns the VM with the given ID.
func (s *Set) VM(id ID) (VM, error) {
	if int(id) < 0 || int(id) >= len(s.vms) {
		return VM{}, fmt.Errorf("vm: id %d out of range [0,%d)", id, len(s.vms))
	}
	return s.vms[id], nil
}

// All returns a copy of the VM list in ID order.
func (s *Set) All() []VM {
	out := make([]VM, len(s.vms))
	copy(out, s.vms)
	return out
}

// TypeOf returns the full type of the VM with the given ID.
func (s *Set) TypeOf(id ID) (Type, error) {
	v, err := s.VM(id)
	if err != nil {
		return Type{}, err
	}
	return s.catalog.ByID(v.Type)
}
