package vhc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vmpower/internal/linalg"
)

// modelFile is the on-disk form of a trained approximator: the fitted
// mapping vectors and diagnostics per combination. The raw sample table
// is not persisted — it exists to support exact-match lookups during the
// session that collected it; a reloaded model serves pure regression.
type modelFile struct {
	Version  int                  `json:"version"`
	NumTypes int                  `json:"num_types"`
	Combos   []comboFile          `json:"combos"`
	Diags    map[string]diagsFile `json:"diags,omitempty"`
}

type comboFile struct {
	Combo   uint16    `json:"combo"`
	Weights []float64 `json:"weights"`
}

type diagsFile struct {
	Samples   int     `json:"samples"`
	RMSE      float64 `json:"rmse"`
	MeanPower float64 `json:"mean_power"`
}

const modelVersion = 1

// ErrModelFormat marks unreadable or inconsistent model files.
var ErrModelFormat = errors.New("vhc: bad model file")

// Export writes the trained mapping vectors as JSON so a calibration can
// be reused across processes (calibrate once, estimate forever).
func (a *Approximator) Export(w io.Writer) error {
	m := a.model.Load()
	file := modelFile{
		Version:  modelVersion,
		NumTypes: a.numTypes,
		Diags:    make(map[string]diagsFile, len(m.diags)),
	}
	for combo := ComboMask(1); int(combo) < len(m.weights); combo++ {
		wts := m.weights[combo]
		if wts == nil {
			continue
		}
		file.Combos = append(file.Combos, comboFile{Combo: uint16(combo), Weights: wts.Clone()})
		if d, ok := m.diags[combo]; ok {
			file.Diags[combo.String()] = diagsFile{Samples: d.Samples, RMSE: d.RMSE, MeanPower: d.MeanPower}
		}
	}
	if len(file.Combos) == 0 {
		return fmt.Errorf("%w: nothing trained to export", ErrUntrained)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("vhc: export: %w", err)
	}
	return nil
}

// Import loads mapping vectors previously written by Export into this
// approximator and publishes them as its model, replacing any trained
// state and dropping every sample. The type count must match.
func (a *Approximator) Import(r io.Reader) error {
	var file modelFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return fmt.Errorf("%w: %v", ErrModelFormat, err)
	}
	if file.Version != modelVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrModelFormat, file.Version, modelVersion)
	}
	if file.NumTypes != a.numTypes {
		return fmt.Errorf("%w: model has %d types, approximator %d", ErrModelFormat, file.NumTypes, a.numTypes)
	}
	m := a.newModel()
	for _, c := range file.Combos {
		combo := ComboMask(c.Combo)
		if combo == 0 || int(c.Combo) >= 1<<uint(a.numTypes) {
			return fmt.Errorf("%w: combo %#x out of range", ErrModelFormat, c.Combo)
		}
		want := a.featureLen(combo)
		if len(c.Weights) != want {
			return fmt.Errorf("%w: combo %s has %d weights, want %d", ErrModelFormat, combo, len(c.Weights), want)
		}
		m.weights[combo] = append(linalg.Vector(nil), c.Weights...)
		if d, ok := file.Diags[combo.String()]; ok {
			m.diags[combo] = Diagnostics{Samples: d.Samples, RMSE: d.RMSE, MeanPower: d.MeanPower}
		}
	}
	if len(file.Combos) == 0 {
		return fmt.Errorf("%w: no combos", ErrModelFormat)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.samples = make(map[ComboMask][]Sample)
	a.model.Store(m)
	return nil
}
