package core

import (
	"sync/atomic"

	"vmpower/internal/obs"
)

// Metrics is the package's self-reporting surface: the model residual
// and the invariant auditor. All handles are nil-safe obs metrics, so an
// uninstrumented estimator pays one atomic pointer load per tick and
// nothing else.
type Metrics struct {
	// ModelResidual is δ/dyn of each EstimateTick tick served by the
	// exact or Monte-Carlo tier whose running set the model can price
	// (vmpower_model_residual_ratio): how far the VHC model's worth of
	// the running set was from the meter. Estimate calls (replays,
	// Audit) are not counted.
	ModelResidual *obs.Histogram
	// AuditChecks counts audited ticks; AuditViolations counts invariant
	// failures (Efficiency, plausibility, deep mismatch) — nonzero means a
	// bill cannot be trusted (vmpower_audit_{checks,violations}_total).
	AuditChecks     *obs.Counter
	AuditViolations *obs.Counter
	// AuditDeepChecks / AuditDeepMismatches count sampled reference
	// re-solves and the ones that diverged beyond tolerance
	// (vmpower_audit_deep_{checks,mismatches}_total).
	AuditDeepChecks     *obs.Counter
	AuditDeepMismatches *obs.Counter
	// AuditEfficiencyResidual is |Σφ − dyn| of the last audited tick in
	// watts (vmpower_audit_efficiency_residual).
	AuditEfficiencyResidual *obs.Gauge
}

// residualBuckets bound δ/dyn: the measured residuals sit within a few
// percent of the dynamic power either way.
var residualBuckets = []float64{-0.2, -0.1, -0.05, -0.02, -0.01, -0.005, 0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}

// pkgMetrics is swapped atomically so Instrument may run while ticks are
// in flight (a daemon wires it once at startup; tests re-wire it).
var pkgMetrics atomic.Pointer[Metrics]

// Instrument registers the package's standard metrics on reg and
// activates them for every subsequent tick. Instrument(nil) returns the
// package to the uninstrumented (zero-overhead) state.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		pkgMetrics.Store(nil)
		return
	}
	pkgMetrics.Store(&Metrics{
		ModelResidual: reg.Histogram("vmpower_model_residual_ratio",
			"(dynamic - model worth of the running set) / dynamic, per served tick", residualBuckets),
		AuditChecks: reg.Counter("vmpower_audit_checks_total",
			"ticks checked by the invariant auditor"),
		AuditViolations: reg.Counter("vmpower_audit_violations_total",
			"invariant violations (efficiency, share bounds, deep mismatches)"),
		AuditDeepChecks: reg.Counter("vmpower_audit_deep_checks_total",
			"sampled deep re-solves through the reference exact solve"),
		AuditDeepMismatches: reg.Counter("vmpower_audit_deep_mismatches_total",
			"deep re-solves that diverged beyond tolerance"),
		AuditEfficiencyResidual: reg.Gauge("vmpower_audit_efficiency_residual",
			"|sum(phi) - dynamic| of the last audited tick (watts)"),
	})
}

// metrics returns the active instrumentation, nil when uninstrumented.
func metrics() *Metrics { return pkgMetrics.Load() }

// noteTick publishes a served tick's model residual. Only
// EstimateTickSpan calls it, so replays and Audit calls are not counted.
func (m *Metrics) noteTick(a *Allocation) {
	if m == nil || a.Prov.ModelResidualWatts == 0 {
		return
	}
	m.ModelResidual.Observe(a.Prov.ModelResidualRel)
}

// noteAudit publishes one audited tick and its Efficiency residual.
func (m *Metrics) noteAudit(residual float64) {
	if m == nil {
		return
	}
	m.AuditChecks.Inc()
	m.AuditEfficiencyResidual.Set(residual)
}

func (m *Metrics) noteAuditViolation() {
	if m == nil {
		return
	}
	m.AuditViolations.Inc()
}

func (m *Metrics) noteAuditDeep() {
	if m == nil {
		return
	}
	m.AuditDeepChecks.Inc()
}

func (m *Metrics) noteAuditDeepMismatch() {
	if m == nil {
		return
	}
	m.AuditDeepMismatches.Inc()
}
