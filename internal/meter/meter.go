// Package meter abstracts the paper's wall power meter (Sec. VI-B): a
// 1 Hz sampler of whole-machine power. SimMeter samples a simulated power
// source and reproduces a physical meter's imperfections (Gaussian noise,
// display quantization); internal/faults layers dropouts and other faults
// over any Meter. The serial subpackage
// implements the prototype's serial-port transport between the metered
// server and the estimating server; the rapl subpackage reads Linux
// powercap sysfs where available.
package meter

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Sample is one power reading.
type Sample struct {
	// Seq is a monotonically increasing sample sequence number.
	Seq uint64
	// Power is the measured whole-machine power in watts.
	Power float64
}

// Meter yields power samples. Implementations are safe for concurrent use.
type Meter interface {
	// Sample returns the next power reading.
	Sample() (Sample, error)
}

// PowerSource provides the instantaneous true power to be metered.
type PowerSource func() (float64, error)

// ErrDropout is returned when a reading is lost (serial glitch, meter
// busy). Callers at 1 Hz simply retry on the next tick.
var ErrDropout = errors.New("meter: sample dropped")

// SimOptions configures a SimMeter.
type SimOptions struct {
	// NoiseStdDev is the Gaussian measurement noise sigma in watts.
	NoiseStdDev float64
	// Resolution quantizes readings (e.g. 0.1 W display resolution).
	// Non-positive disables quantization.
	Resolution float64
	// Seed seeds the meter's private PRNG.
	Seed int64
}

// SimMeter measures a PowerSource with configurable imperfections.
type SimMeter struct {
	source PowerSource
	opts   SimOptions

	mu  sync.Mutex
	rng *rand.Rand
	seq uint64
}

// NewSim builds a SimMeter over the given source.
func NewSim(source PowerSource, opts SimOptions) (*SimMeter, error) {
	if source == nil {
		return nil, errors.New("meter: nil power source")
	}
	if opts.NoiseStdDev < 0 {
		return nil, fmt.Errorf("meter: negative noise sigma %g", opts.NoiseStdDev)
	}
	return &SimMeter{
		source: source,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// Sample implements Meter.
func (m *SimMeter) Sample() (Sample, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	seq := m.seq
	p, err := m.source()
	if err != nil {
		return Sample{Seq: seq}, fmt.Errorf("meter: source: %w", err)
	}
	if m.opts.NoiseStdDev > 0 {
		p += m.rng.NormFloat64() * m.opts.NoiseStdDev
	}
	if r := m.opts.Resolution; r > 0 {
		p = quantize(p, r)
	}
	if p < 0 {
		p = 0
	}
	return Sample{Seq: seq, Power: p}, nil
}

func quantize(v, r float64) float64 {
	n := v / r
	// Round half away from zero, as meter displays do.
	if n >= 0 {
		n = float64(int64(n + 0.5))
	} else {
		n = float64(int64(n - 0.5))
	}
	return n * r
}

// Perfect returns a noiseless, lossless meter over the source — useful as
// a ground-truth oracle in tests and experiments.
func Perfect(source PowerSource) (*SimMeter, error) {
	return NewSim(source, SimOptions{})
}
