// Package faults is a deterministic, seeded fault injector for the
// metering pipeline. The paper's prototype reads a 1 Hz serial power feed
// (Sec. VI-B) where dropouts, corrupt frames and stale samples are the
// normal case, not the exception; this package reproduces those failure
// modes on demand so the estimator's degradation behaviour can be tested,
// demoed and regression-pinned.
//
// Two layers are covered:
//
//   - Meter wraps any meter.Meter with independent per-sample faults
//     (dropouts, spikes, NaNs) plus scripted episodes in tick time
//     (dropout windows, stuck-at readings, error bursts standing in for a
//     corrupt serial stream). Everything is driven by one seeded PRNG, so
//     a (seed, schedule) pair replays bit-for-bit.
//   - CorruptReader wraps an io.Reader with seeded byte corruption —
//     random bit flips and scripted burst windows — which turns a valid
//     serial frame stream into the bad-frame/resync traffic the
//     serial.Reader and Client must ride out.
//
// The injector is armed explicitly (SetArmed), so a daemon can calibrate
// against the clean meter and switch chaos on only for the online phase.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vmpower/internal/meter"
)

// Kind enumerates the fault classes an Episode can script.
type Kind int

const (
	// Dropout makes every sample in the episode return meter.ErrDropout.
	Dropout Kind = iota
	// StuckAt freezes the meter at the last clean reading for the whole
	// episode (a real meter whose display stops updating).
	StuckAt
	// Spike multiplies readings by the episode (or option) factor —
	// implausibly large values a plausibility gate should reject.
	Spike
	// NaN returns non-finite readings.
	NaN
	// Error returns the episode's Err from every sample — standing in for
	// a transport-level failure such as serial.ErrCorruptStream.
	Error
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case Dropout:
		return "dropout"
	case StuckAt:
		return "stuck-at"
	case Spike:
		return "spike"
	case NaN:
		return "nan"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Episode is one scripted fault window in tick time: ticks
// [Start, Start+Len) are affected. Ticks advance only via Meter.NextTick,
// so the driving loop decides what a "tick" is (powerd advances once per
// Step).
type Episode struct {
	// Start is the first affected tick (as counted by NextTick calls
	// after arming; the first sample window is tick 0).
	Start int
	// Len is the episode duration in ticks.
	Len int
	// Kind is the fault class.
	Kind Kind
	// Factor scales Spike readings; <= 0 uses Options.SpikeFactor.
	Factor float64
	// Err is returned by Error episodes; nil uses ErrInjected.
	Err error
}

// covers reports whether the episode is active at tick t.
func (ep Episode) covers(t int) bool { return t >= ep.Start && t < ep.Start+ep.Len }

// ErrInjected is the default error of an Error episode.
var ErrInjected = errors.New("faults: injected meter error")

// Options configures a Meter.
type Options struct {
	// Seed drives the injector's private PRNG. Equal seeds replay
	// identical fault sequences.
	Seed int64
	// DropoutProb is the per-sample probability of meter.ErrDropout.
	DropoutProb float64
	// SpikeProb is the per-sample probability of a spike reading.
	SpikeProb float64
	// SpikeFactor scales spiked readings. 0 defaults to 10.
	SpikeFactor float64
	// NaNProb is the per-sample probability of a NaN reading.
	NaNProb float64
	// Episodes is the scripted schedule, in tick time.
	Episodes []Episode
}

func (o Options) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"dropout", o.DropoutProb}, {"spike", o.SpikeProb}, {"nan", o.NaNProb}} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("faults: %s probability %g outside [0,1)", p.name, p.v)
		}
	}
	if o.SpikeFactor < 0 {
		return fmt.Errorf("faults: negative spike factor %g", o.SpikeFactor)
	}
	for i, ep := range o.Episodes {
		if ep.Start < 0 || ep.Len <= 0 {
			return fmt.Errorf("faults: episode %d has window [%d,+%d)", i, ep.Start, ep.Len)
		}
	}
	return nil
}

// Counts tallies the faults injected so far, for test assertions and
// chaos-run reporting.
type Counts struct {
	Dropouts uint64
	Spikes   uint64
	NaNs     uint64
	Stuck    uint64
	Errors   uint64
}

// Meter wraps an inner meter.Meter with the scripted and random faults of
// its Options. It is safe for concurrent use; tick advancement is the
// caller's (single) driving loop.
type Meter struct {
	inner meter.Meter
	opts  Options

	mu       sync.Mutex
	rng      *rand.Rand
	armed    bool
	tick     int
	seq      uint64
	lastGood float64
	haveGood bool
	counts   Counts
}

// Wrap builds a fault-injecting wrapper over inner. The wrapper starts
// disarmed (transparent); call SetArmed(true) to begin injecting.
func Wrap(inner meter.Meter, opts Options) (*Meter, error) {
	if inner == nil {
		return nil, errors.New("faults: nil inner meter")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.SpikeFactor == 0 {
		opts.SpikeFactor = 10
	}
	return &Meter{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}, nil
}

// SetArmed switches injection on or off. Disarmed, the wrapper is
// transparent (every Sample goes straight to the inner meter), which lets
// a daemon calibrate cleanly before the chaos starts.
func (m *Meter) SetArmed(on bool) {
	m.mu.Lock()
	m.armed = on
	m.mu.Unlock()
}

// NextTick advances the episode clock by one tick. The driving loop calls
// it once per estimation tick so Episodes line up with the estimator's
// tick numbering regardless of how many retry samples a tick consumes.
func (m *Meter) NextTick() {
	m.mu.Lock()
	m.tick++
	m.mu.Unlock()
}

// Tick returns the current episode clock.
func (m *Meter) Tick() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tick
}

// Injected returns the fault tallies so far.
func (m *Meter) Injected() Counts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// episode returns the first episode covering tick t, if any.
func (m *Meter) episode(t int) (Episode, bool) {
	for _, ep := range m.opts.Episodes {
		if ep.covers(t) {
			return ep, true
		}
	}
	return Episode{}, false
}

// Sample implements meter.Meter: it applies the active episode (if any),
// then the independent per-sample faults, to the inner meter's reading.
// A clean pass-through updates the last-good value StuckAt episodes
// replay.
func (m *Meter) Sample() (meter.Sample, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.armed {
		return m.passThrough()
	}
	if ep, ok := m.episode(m.tick); ok {
		switch ep.Kind {
		case Dropout:
			m.counts.Dropouts++
			m.seq++
			return meter.Sample{Seq: m.seq}, meter.ErrDropout
		case Error:
			m.counts.Errors++
			m.seq++
			err := ep.Err
			if err == nil {
				err = ErrInjected
			}
			return meter.Sample{Seq: m.seq}, err
		case StuckAt:
			if m.haveGood {
				m.counts.Stuck++
				m.seq++
				return meter.Sample{Seq: m.seq, Power: m.lastGood}, nil
			}
			// No reading to stick at yet: fall through to the live meter.
		case NaN:
			m.counts.NaNs++
			m.seq++
			return meter.Sample{Seq: m.seq, Power: math.NaN()}, nil
		case Spike:
			s, err := m.passThrough()
			if err != nil {
				return s, err
			}
			m.counts.Spikes++
			f := ep.Factor
			if f <= 0 {
				f = m.opts.SpikeFactor
			}
			s.Power *= f
			return s, nil
		}
	}
	// Independent per-sample faults. One uniform draw per fault class
	// keeps the stream deterministic in (seed, sample index).
	if m.opts.DropoutProb > 0 && m.rng.Float64() < m.opts.DropoutProb {
		m.counts.Dropouts++
		m.seq++
		return meter.Sample{Seq: m.seq}, meter.ErrDropout
	}
	s, err := m.passThrough()
	if err != nil {
		return s, err
	}
	if m.opts.NaNProb > 0 && m.rng.Float64() < m.opts.NaNProb {
		m.counts.NaNs++
		s.Power = math.NaN()
		return s, nil
	}
	if m.opts.SpikeProb > 0 && m.rng.Float64() < m.opts.SpikeProb {
		m.counts.Spikes++
		s.Power *= m.opts.SpikeFactor
		return s, nil
	}
	return s, nil
}

// passThrough samples the inner meter and tracks the last clean reading.
// Callers hold m.mu.
func (m *Meter) passThrough() (meter.Sample, error) {
	s, err := m.inner.Sample()
	if err == nil {
		m.lastGood = s.Power
		m.haveGood = true
		m.seq = s.Seq
	}
	return s, err
}
