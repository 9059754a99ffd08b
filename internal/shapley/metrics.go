package shapley

import (
	"math"
	"sync/atomic"
	"time"

	"vmpower/internal/obs"
)

// Metrics is the package's self-reporting surface. All handles are
// nil-safe obs metrics, so a zero Metrics (or no Instrument call at
// all) costs one atomic pointer load per solver entry and nothing else
// — the hot loops are untouched.
type Metrics struct {
	// SolveTabulate/SolveAccumulate/SolveMC time the three solver
	// phases: 2^n worth tabulation, weighted accumulation, and the
	// Monte-Carlo permutation walk (vmpower_solve_duration_seconds).
	SolveTabulate   *obs.Histogram
	SolveAccumulate *obs.Histogram
	SolveMC         *obs.Histogram
	// MCPermutations counts permutations actually walked
	// (vmpower_mc_permutations_total).
	MCPermutations *obs.Counter
	// MCStdErr is the max per-player standard error of the most recent
	// Monte-Carlo solve at stop (vmpower_mc_stderr_watts) — the
	// sampling-error signal Statistical Cost Sharing says must be
	// surfaced, not buried in the result struct.
	MCStdErr *obs.Gauge
}

// pkgMetrics is swapped atomically so Instrument may run while solvers
// are in flight (a daemon wires it once at startup; tests re-wire it).
var pkgMetrics atomic.Pointer[Metrics]

// Instrument registers the package's standard metrics on reg and
// activates them for every subsequent solve. Instrument(nil) returns
// the package to the uninstrumented (zero-overhead) state.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		pkgMetrics.Store(nil)
		return
	}
	pkgMetrics.Store(&Metrics{
		SolveTabulate: reg.Histogram("vmpower_solve_duration_seconds",
			"Shapley solver phase latency", nil, obs.L("method", "tabulate")),
		SolveAccumulate: reg.Histogram("vmpower_solve_duration_seconds",
			"Shapley solver phase latency", nil, obs.L("method", "accumulate")),
		SolveMC: reg.Histogram("vmpower_solve_duration_seconds",
			"Shapley solver phase latency", nil, obs.L("method", "montecarlo")),
		MCPermutations: reg.Counter("vmpower_mc_permutations_total",
			"permutations walked by the Monte-Carlo estimator"),
		MCStdErr: reg.Gauge("vmpower_mc_stderr_watts",
			"max per-player standard error of the last Monte-Carlo solve"),
	})
}

// metrics returns the active instrumentation, nil when uninstrumented.
func metrics() *Metrics { return pkgMetrics.Load() }

// The observe* helpers select the histogram inside the nil check so an
// uninstrumented call site never dereferences the nil *Metrics.

func (m *Metrics) observeTabulate(start time.Time) {
	if m == nil {
		return
	}
	m.SolveTabulate.Observe(time.Since(start).Seconds())
}

func (m *Metrics) observeAccumulate(start time.Time) {
	if m == nil {
		return
	}
	m.SolveAccumulate.Observe(time.Since(start).Seconds())
}

func (m *Metrics) observeMC(start time.Time) {
	if m == nil {
		return
	}
	m.SolveMC.Observe(time.Since(start).Seconds())
}

// startTimer returns the wall clock only when m is live, so the
// uninstrumented path skips the time.Now syscall entirely.
func (m *Metrics) startTimer() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// noteMC publishes one Monte-Carlo solve's convergence telemetry.
func (m *Metrics) noteMC(res *MCResult) {
	if m == nil {
		return
	}
	m.MCPermutations.Add(uint64(res.Permutations))
	maxSE := 0.0
	for _, se := range res.StdErr {
		if se > maxSE && !math.IsInf(se, 1) {
			maxSE = se
		}
	}
	m.MCStdErr.Set(maxSE)
}
