package core

import (
	"sync/atomic"

	"vmpower/internal/obs"
)

// Metrics is the package's self-reporting surface: the compiled-plan
// lifecycle and the incremental tabulation's cache behaviour. All handles
// are nil-safe obs metrics, so an uninstrumented estimator pays one
// atomic pointer load per tick and nothing else.
type Metrics struct {
	// PlanCompiles counts worth-plan compilations
	// (vmpower_plan_compiles_total); PlanCompileErrors counts failed
	// compiles, each of which sends ticks to the fallback policy until
	// the model changes (vmpower_plan_compile_errors_total).
	PlanCompiles      *obs.Counter
	PlanCompileErrors *obs.Counter
	// The tick counters below count EstimateTick's ticks only; Estimate
	// calls (replays, Audit) are not counted.
	//
	// PlanTicks counts mask-exact ticks served through the compiled plan;
	// PlanFullTabulations counts the subset that could not reuse the
	// previous tick's table (first tick, running-set change, new plan)
	// (vmpower_plan_ticks_total, vmpower_plan_full_tabulations_total).
	PlanTicks           *obs.Counter
	PlanFullTabulations *obs.Counter
	// PlanDirtyVMs is the dirty-set size of the last plan tick
	// (vmpower_plan_dirty_vms).
	PlanDirtyVMs *obs.Gauge
	// PlanCoalitionsEvaluated / PlanCoalitionsReused count worth-table
	// entries re-evaluated vs reused verbatim by the incremental
	// recurrence (vmpower_plan_coalitions_{evaluated,reused}_total).
	PlanCoalitionsEvaluated *obs.Counter
	PlanCoalitionsReused    *obs.Counter
	// SymTicks counts exact ticks served through the symmetry-collapsed
	// solver (vmpower_sym_ticks_total); SymClasses is the class count of
	// the last such tick (vmpower_sym_classes). SymVectorsEvaluated /
	// SymVectorsReused count collapsed-table entries re-evaluated vs
	// reused across ticks (vmpower_sym_vectors_{evaluated,reused}_total).
	SymTicks            *obs.Counter
	SymClasses          *obs.Gauge
	SymVectorsEvaluated *obs.Counter
	SymVectorsReused    *obs.Counter
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
		PlanCompiles: reg.Counter("vmpower_plan_compiles_total",
			"compiled worth-plan builds (one per model epoch)"),
		PlanCompileErrors: reg.Counter("vmpower_plan_compile_errors_total",
			"worth-plan compiles that failed (ticks fall to the fallback policy until the model changes)"),
		PlanTicks: reg.Counter("vmpower_plan_ticks_total",
			"exact estimation ticks served through the compiled plan"),
		PlanFullTabulations: reg.Counter("vmpower_plan_full_tabulations_total",
			"plan ticks that re-tabulated the whole 2^n worth table"),
		PlanDirtyVMs: reg.Gauge("vmpower_plan_dirty_vms",
			"VMs whose state changed since the previous tick (last plan tick)"),
		PlanCoalitionsEvaluated: reg.Counter("vmpower_plan_coalitions_evaluated_total",
			"worth-table entries (re-)evaluated by plan ticks"),
		PlanCoalitionsReused: reg.Counter("vmpower_plan_coalitions_reused_total",
			"worth-table entries reused verbatim across ticks"),
		SymTicks: reg.Counter("vmpower_sym_ticks_total",
			"exact estimation ticks served through the symmetry-collapsed solver"),
		SymClasses: reg.Gauge("vmpower_sym_classes",
			"symmetry classes of the last collapsed tick"),
		SymVectorsEvaluated: reg.Counter("vmpower_sym_vectors_evaluated_total",
			"collapsed worth-table entries (re-)evaluated by symmetry ticks"),
		SymVectorsReused: reg.Counter("vmpower_sym_vectors_reused_total",
			"collapsed worth-table entries reused verbatim across ticks"),
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

func (m *Metrics) notePlanCompile() {
	if m == nil {
		return
	}
	m.PlanCompiles.Inc()
}

func (m *Metrics) notePlanCompileError() {
	if m == nil {
		return
	}
	m.PlanCompileErrors.Inc()
}

// noteTick publishes a served tick's solver shape and cache behaviour
// from its provenance: a mask-exact tick's dirty VMs and evaluated and
// reused coalitions, or a collapsed tick's classes and vectors. Only
// EstimateTickSpan calls it, so replays and Audit calls are not counted.
func (m *Metrics) noteTick(a *Allocation) {
	if m == nil {
		return
	}
	p := &a.Prov
	switch {
	case p.Tier == TierSymExact:
		m.SymTicks.Inc()
		m.SymClasses.Set(float64(a.SymmetryClasses))
		m.SymVectorsEvaluated.Add(uint64(p.Evaluated))
		m.SymVectorsReused.Add(uint64(p.Reused))
	case p.Tier == TierMaskExact && p.TierReason == reasonMaskBudget:
		m.PlanTicks.Inc()
		if p.FullTabulation {
			m.PlanFullTabulations.Inc()
		}
		m.PlanDirtyVMs.Set(float64(p.DirtyVMs))
		m.PlanCoalitionsEvaluated.Add(uint64(p.Evaluated))
		m.PlanCoalitionsReused.Add(uint64(p.Reused))
	}
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
