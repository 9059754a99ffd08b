// Package vhc implements the paper's Virtual Homogeneous VM Coalition
// machinery (Sec. V-C): grouping the members of a coalition by VM type
// into VHCs, aggregating their state vectors (v_j = Σ c_i, Eq. 8),
// learning one linear power-mapping vector w_j per VHC and per VHC
// combination from partially measured (state, power) samples (Def. 2), and
// approximating any unobserved coalition worth as v(S,C) = Σ_j w_j·v_j
// (Eqs. 9–10). Exact matches against previously measured states are served
// from the v(S,C) table directly.
package vhc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"vmpower/internal/linalg"
	"vmpower/internal/vm"
)

// ComboMask identifies a combination of VHCs: bit j set means VMs of type
// j are present in the coalition. With r VM types there are 2^r combos.
type ComboMask uint16

// MaxTypes bounds the type count so combos stay enumerable; the paper
// notes real platforms offer no more than ~5 types per machine.
const MaxTypes = 12

// Contains reports whether type t is present in the combo.
func (c ComboMask) Contains(t vm.TypeID) bool { return c&(1<<uint(t)) != 0 }

// Size returns the number of VHCs present.
func (c ComboMask) Size() int { return bits.OnesCount16(uint16(c)) }

// Types returns the present type IDs in ascending order.
func (c ComboMask) Types() []vm.TypeID {
	out := make([]vm.TypeID, 0, c.Size())
	for m := uint16(c); m != 0; {
		b := bits.TrailingZeros16(m)
		out = append(out, vm.TypeID(b))
		m &^= 1 << uint(b)
	}
	return out
}

// String renders the combo as a type list.
func (c ComboMask) String() string {
	ts := c.Types()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = strconv.Itoa(int(t))
	}
	return "types{" + strings.Join(parts, ",") + "}"
}

// Sample is one offline measurement: the features of a coalition state and
// the measured aggregated power (idle deducted).
type Sample struct {
	Features []float64
	Power    float64
}

// Errors returned by the approximator.
var (
	// ErrUntrained is returned when pricing a combo with no model.
	ErrUntrained = errors.New("vhc: combination has no trained model")
	// ErrNoSamples is returned when training a combo with no samples.
	ErrNoSamples = errors.New("vhc: no samples")
	// ErrFeatureLen is returned on feature-length mismatches.
	ErrFeatureLen = errors.New("vhc: feature length mismatch")
)

// Options configures an Approximator.
type Options struct {
	// Resolution quantizes table keys (the paper uses 0.01). Non-positive
	// disables the exact-match table, forcing pure regression.
	Resolution float64
}

// ridgeLambda is the regularisation used when least squares is rank
// deficient (near-constant or all-zero feature columns).
const ridgeLambda = 1e-6

// Approximator learns and serves v(S, C) per VHC combination.
//
// Thread-safety: AddSample only appends a sample, under mu. Train and
// Import each build a whole model — the fitted mapping vectors and the
// exact-match v(S,C) tables — and publish it with one atomic pointer
// store; a published model is never changed. Every reader (Weights,
// CPUWeights, Diags, Trained, NewPlan) loads the published model once
// and reads only that, so it sees one model whole and takes no lock.
// Samples added since the last Train reach no reader until the next one.
// Between publications a trained Approximator's plans are therefore pure
// functions of (combo, features), the purity contract the parallel
// Shapley engine's worth cache and sharded evaluation rely on (see
// internal/shapley/parallel.go); a Train concurrent with estimation
// switches the plans built after it from one whole model to the next.
type Approximator struct {
	numTypes   int
	resolution float64

	mu      sync.Mutex // guards samples; orders Train and Import
	samples map[ComboMask][]Sample
	model   atomic.Pointer[model]
}

// model is one published trained model, indexed by ComboMask: the fitted
// mapping vectors (nil when untrained), the exact-match tables (nil when
// the combo has no samples or the table is disabled) and the fits'
// diagnostics.
type model struct {
	weights []linalg.Vector
	tables  []*comboTable
	diags   map[ComboMask]Diagnostics
}

// comboWeights returns combo's fitted mapping vector, nil when untrained.
func (m *model) comboWeights(combo ComboMask) linalg.Vector {
	if int(combo) >= len(m.weights) {
		return nil
	}
	return m.weights[combo]
}

// table returns combo's exact-match table, nil when it has none.
func (m *model) table(combo ComboMask) *comboTable {
	if int(combo) >= len(m.tables) {
		return nil
	}
	return m.tables[combo]
}

// Diagnostics summarises one combo's fit quality, recorded at Train time.
type Diagnostics struct {
	// Samples is the number of training samples.
	Samples int
	// RMSE is the training residual root-mean-square error in watts.
	RMSE float64
	// MeanPower is the mean training power, so RMSE/MeanPower is a
	// relative fit-quality figure.
	MeanPower float64
}

// RelativeRMSE returns RMSE normalised by the mean training power
// (0 when the combo never drew power).
func (d Diagnostics) RelativeRMSE() float64 {
	if d.MeanPower == 0 {
		return 0
	}
	return d.RMSE / d.MeanPower
}

type tableEntry struct {
	sum   float64
	count int
}

func (e tableEntry) mean() float64 { return e.sum / float64(e.count) }

// comboTable is one combo's exact-match v(S,C) table: the summed power
// and count of the samples measured at each lattice key, plus the
// bounding box of those keys. A key is the combo's own flen lattice
// coordinates, 8 little-endian bytes each; index maps it to its entry,
// so only a new key allocates. lo[i] and hi[i] are the least and greatest
// lattice coordinate i of any stored key, so a feature vector with a
// coordinate outside [lo[i], hi[i]] has no entry and needs no hashing to
// find that out.
type comboTable struct {
	index   map[string]int
	entries []tableEntry
	lo, hi  [MaxFeatureLen]int64
}

// newComboTable keys a combo's samples onto the resolution lattice with
// the key lookup probes, adding each key's powers in arrival order.
func newComboTable(samples []Sample, flen int, res float64) *comboTable {
	t := &comboTable{
		index:   make(map[string]int, len(samples)),
		entries: make([]tableEntry, 0, len(samples)),
	}
	for i := 0; i < flen; i++ {
		t.lo[i], t.hi[i] = math.MaxInt64, math.MinInt64
	}
	var key [8 * MaxFeatureLen]byte
	for _, s := range samples {
		for i, f := range s.Features {
			c := latticeCoord(f, res)
			t.lo[i] = min(t.lo[i], c)
			t.hi[i] = max(t.hi[i], c)
			binary.LittleEndian.PutUint64(key[8*i:], uint64(c))
		}
		// Indexing with string(bytes) does not allocate; storing a key
		// does, so an existing entry is updated through its index.
		j, ok := t.index[string(key[:8*flen])]
		if !ok {
			j = len(t.entries)
			t.index[string(key[:8*flen])] = j
			t.entries = append(t.entries, tableEntry{})
		}
		t.entries[j].sum += s.Power
		t.entries[j].count++
	}
	return t
}

// lookup returns the table mean stored under feat's lattice key, if any.
// It quantizes one coordinate at a time and gives up at the first one
// outside the box, before hashing: every stored key lies inside the box,
// so such a vector has no entry. Online states almost never hit the
// table, and most lookups leave the box at the first coordinate, which is
// therefore tested before any key byte is written.
func (t *comboTable) lookup(feat *[MaxFeatureLen]float64, flen int, res float64) (float64, bool) {
	c := latticeCoord(feat[0], res)
	if c < t.lo[0] || c > t.hi[0] {
		return 0, false
	}
	var key [8 * MaxFeatureLen]byte
	binary.LittleEndian.PutUint64(key[:], uint64(c))
	for i := 1; i < flen; i++ {
		c = latticeCoord(feat[i], res)
		if c < t.lo[i] || c > t.hi[i] {
			return 0, false
		}
		binary.LittleEndian.PutUint64(key[8*i:], uint64(c))
	}
	j, ok := t.index[string(key[:8*flen])]
	if !ok {
		return 0, false
	}
	return t.entries[j].mean(), true
}

// MaxFeatureLen is the widest possible feature vector: every one of the
// MaxTypes classes present, k components each.
const MaxFeatureLen = MaxTypes * int(vm.NumComponents)

// latticeCoord quantizes one feature onto the resolution lattice. The
// saturation guards keep pathological resolutions (f/res beyond the int64
// range) from hitting implementation-defined float→int conversions.
func latticeCoord(f, res float64) int64 {
	q := math.Round(f / res)
	if q >= math.MaxInt64 {
		return math.MaxInt64
	}
	if q <= math.MinInt64 {
		return math.MinInt64
	}
	return int64(q)
}

// New builds an Approximator over numTypes VM types.
func New(numTypes int, opts Options) (*Approximator, error) {
	if numTypes < 1 || numTypes > MaxTypes {
		return nil, fmt.Errorf("vhc: numTypes %d outside [1,%d]", numTypes, MaxTypes)
	}
	a := &Approximator{
		numTypes:   numTypes,
		resolution: opts.Resolution,
		samples:    make(map[ComboMask][]Sample),
	}
	a.model.Store(a.newModel())
	return a, nil
}

// newModel returns an empty model with one slot per combination.
func (a *Approximator) newModel() *model {
	combos := 1 << uint(a.numTypes)
	return &model{
		weights: make([]linalg.Vector, combos),
		tables:  make([]*comboTable, combos),
		diags:   make(map[ComboMask]Diagnostics),
	}
}

// NumTypes returns r, the VM type count.
func (a *Approximator) NumTypes() int { return a.numTypes }

// Combos returns the number of non-empty VHC combinations (2^r − 1).
func (a *Approximator) Combos() int { return 1<<uint(a.numTypes) - 1 }

func (a *Approximator) featureLen(combo ComboMask) int {
	return combo.Size() * int(vm.NumComponents)
}

// AddSample records one offline measurement for a combo. Plans see it
// only after the next Train. A sample with a non-finite feature or power
// is refused and nothing is recorded: one NaN would poison its table
// entry's mean and the combo's whole fit.
func (a *Approximator) AddSample(combo ComboMask, features []float64, power float64) error {
	if combo == 0 {
		return errors.New("vhc: cannot sample the empty combination")
	}
	if got, want := len(features), a.featureLen(combo); got != want {
		return fmt.Errorf("%w: got %d, want %d for %s", ErrFeatureLen, got, want, combo)
	}
	notFinite := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	if notFinite(power) || slices.ContainsFunc(features, notFinite) {
		return fmt.Errorf("vhc: non-finite sample for %s: features %v, power %g", combo, features, power)
	}
	f := append([]float64(nil), features...)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.samples[combo] = append(a.samples[combo], Sample{Features: f, Power: power})
	return nil
}

// SampleCount returns the number of samples recorded for a combo.
func (a *Approximator) SampleCount(combo ComboMask) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.samples[combo])
}

// Train fits the mapping vector of every combo that has samples, keys
// every sample into its combo's exact-match table, and publishes the
// result as the new model. Combos without samples keep their previous
// fit. Combos whose regression fails (e.g. a single degenerate sample)
// are reported in the returned error but do not prevent the others from
// training.
func (a *Approximator) Train() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	old, m := a.model.Load(), a.newModel()
	copy(m.weights, old.weights)
	maps.Copy(m.diags, old.diags)
	var failures []string
	for combo, samples := range a.samples {
		if a.resolution > 0 {
			m.tables[combo] = newComboTable(samples, a.featureLen(combo), a.resolution)
		}
		if err := a.fitCombo(m, combo, samples); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", combo, err))
		}
	}
	a.model.Store(m)
	if len(failures) > 0 {
		return fmt.Errorf("vhc: training failed for %d combos: %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}

// fitCombo fits combo's mapping vector to its samples and records it and
// the fit's diagnostics in m.
func (a *Approximator) fitCombo(m *model, combo ComboMask, samples []Sample) error {
	if len(samples) == 0 {
		return ErrNoSamples
	}
	cols := a.featureLen(combo)
	rows := make([][]float64, len(samples))
	b := make(linalg.Vector, len(samples))
	for i, s := range samples {
		rows[i] = s.Features
		b[i] = s.Power
	}
	mat, err := linalg.MatrixFromRows(rows)
	if err != nil {
		return err
	}
	if mat.Cols() != cols {
		return fmt.Errorf("%w: matrix has %d cols, want %d", ErrFeatureLen, mat.Cols(), cols)
	}
	w, err := linalg.LeastSquares(mat, b, ridgeLambda)
	if err != nil {
		return fmt.Errorf("least squares: %w", err)
	}
	m.weights[combo] = w
	rmse, err := linalg.RMSE(mat, w, b)
	if err != nil {
		return fmt.Errorf("fit diagnostics: %w", err)
	}
	m.diags[combo] = Diagnostics{
		Samples:   len(samples),
		RMSE:      rmse,
		MeanPower: b.Sum() / float64(len(b)),
	}
	return nil
}

// Diags returns a combo's fit diagnostics (recorded by Train).
func (a *Approximator) Diags(combo ComboMask) (Diagnostics, error) {
	d, ok := a.model.Load().diags[combo]
	if !ok {
		return Diagnostics{}, fmt.Errorf("%w: %s", ErrUntrained, combo)
	}
	return d, nil
}

// Trained reports whether the combo has a fitted model.
func (a *Approximator) Trained(combo ComboMask) bool {
	return a.model.Load().comboWeights(combo) != nil
}

// Weights returns a copy of the fitted mapping vector for a combo, laid
// out as ClassedFeaturesFor's features (present classes ascending ×
// components).
func (a *Approximator) Weights(combo ComboMask) (linalg.Vector, error) {
	w := a.model.Load().comboWeights(combo)
	if w == nil {
		return nil, fmt.Errorf("%w: %s", ErrUntrained, combo)
	}
	return w.Clone(), nil
}

// CPUWeights returns the CPU component of each present type's mapping
// vector, in ascending type order — the w_j scalars the paper reports
// (e.g. w1 = 9.42 for the homogeneous coalition).
func (a *Approximator) CPUWeights(combo ComboMask) ([]float64, error) {
	w, err := a.Weights(combo)
	if err != nil {
		return nil, err
	}
	k := int(vm.NumComponents)
	out := make([]float64, combo.Size())
	for i := range out {
		out[i] = w[i*k+int(vm.CPU)]
	}
	return out, nil
}
