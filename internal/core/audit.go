package core

import (
	"fmt"
	"math"

	"vmpower/internal/hypervisor"
	"vmpower/internal/shapley"
	"vmpower/internal/vm"
)

// AuditConfig tunes the invariant auditor.
type AuditConfig struct {
	// DeepEvery is the sampled deep-check cadence: every DeepEvery-th
	// audited tick that was solved exactly is re-solved by an independent
	// reference (per-coalition Plan.Eval worths, full 2^n tabulation,
	// textbook Shapley sum) and compared per-VM. 0 disables deep checks.
	// Each deep check costs one full 2^n solve.
	DeepEvery int
}

// The auditor's tolerances, relative to s = max(1, dyn) watts.
const (
	// efficiencyTol bounds |Σφ − dyn| at efficiencyTol·s. Monte-Carlo
	// ticks get 100× slack — their φ still telescopes to the grand worth
	// per sampled permutation, but the float error of millions of
	// accumulated marginals is larger than an exact solve's.
	efficiencyTol = 1e-6
	// shareMargin widens the per-VM plausibility band: every share must
	// fall in [−m·s, dyn + m·s] for margin m. Exact Shapley shares can go
	// slightly negative under interference, but a share far below zero
	// or above the whole dynamic draw is an engine bug, not physics.
	shareMargin = 0.5
	// deepTol bounds each VM's deep-check divergence at deepTol·s: the
	// exact tier's closed form and the reference's textbook sum are two
	// evaluations of the same value and differ by rounding only, within
	// 1e-12 of the worth scale in the oracle tests.
	deepTol = 1e-9
)

// AuditViolation is one invariant failure, delivered to the auditor's
// callback. Violations never abort the tick: the allocation has already
// been produced and the operator needs it served and flagged, not
// withheld.
type AuditViolation struct {
	Tick int
	// Kind is "efficiency", "share-bound", "non-finite" or
	// "deep-mismatch".
	Kind   string
	Detail string
}

// Auditor runs in-line invariant checks on every successful tick plus a
// sampled deep re-solve, publishing vmpower_audit_* metrics and invoking
// the violation callback. It is owned by the estimation goroutine (same
// single-goroutine contract as EstimateTickSpan); the callback fires
// synchronously from that goroutine.
type Auditor struct {
	cfg         AuditConfig
	onViolation func(AuditViolation)
	ticks       uint64 // audited ticks, drives the deep cadence
}

// NewAuditor builds an auditor. onViolation (nil is fine) is invoked
// synchronously for each violation.
func NewAuditor(cfg AuditConfig, onViolation func(AuditViolation)) *Auditor {
	return &Auditor{cfg: cfg, onViolation: onViolation}
}

// violate records one violation on the tick's provenance, the package
// metrics and the callback. Violations are rare, so the formatted detail
// may allocate.
func (a *Auditor) violate(alloc *Allocation, kind, detail string) {
	alloc.Prov.AuditViolations++
	metrics().noteAuditViolation()
	if a.onViolation != nil {
		a.onViolation(AuditViolation{Tick: alloc.Tick, Kind: kind, Detail: detail})
	}
}

// audit runs the per-tick checks. The in-line pass is allocation-free
// and O(n): the Efficiency residual and per-VM plausibility bounds. The
// deep pass re-solves the tick with the reference every DeepEvery audited
// ticks.
func (a *Auditor) audit(e *Estimator, snap hypervisor.Snapshot, alloc *Allocation) {
	a.ticks++
	dyn := alloc.DynamicPower
	scale := dyn
	if scale < 1 {
		scale = 1
	}

	// Efficiency: the shares must sum to the dynamic power the meter
	// implied — the axiom a tenant's bill rests on.
	var sum float64
	for _, p := range alloc.PerVM {
		sum += p
	}
	residual := math.Abs(sum - dyn)
	alloc.Prov.EfficiencyResidualWatts = residual
	tol := efficiencyTol * scale
	if alloc.Method == "montecarlo" {
		tol *= 100
	}
	if math.IsNaN(residual) || residual > tol {
		a.violate(alloc, "efficiency",
			fmt.Sprintf("|Σφ−dyn| = %g W exceeds %g W (Σφ=%g, dyn=%g, tier=%s)",
				residual, tol, sum, dyn, alloc.Prov.Tier))
	}

	// Plausibility: every share finite and inside the interference band.
	lo := -shareMargin * scale
	hi := dyn + shareMargin*scale
	for i, p := range alloc.PerVM {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			a.violate(alloc, "non-finite", fmt.Sprintf("φ[%d] = %g", i, p))
			continue
		}
		if p < lo || p > hi {
			a.violate(alloc, "share-bound",
				fmt.Sprintf("φ[%d] = %g W outside [%g, %g]", i, p, lo, hi))
		}
	}

	metrics().noteAudit(residual)

	if a.cfg.DeepEvery <= 0 || a.ticks%uint64(a.cfg.DeepEvery) != 0 {
		return
	}
	a.deepCheck(e, snap, alloc, scale)
}

// deepMaxPlayers bounds the VM sets the deep check re-solves: its
// reference enumerates 2^n coalitions, 2^16 at the paper's practical
// bound.
const deepMaxPlayers = 16

// deepCheck re-solves an exactly-solved tick with a reference built from
// the meter reading: the idle deduction, planWorth's worths (each
// coalition's member states summed and priced by Plan.Eval, where the
// exact tier prices group sums), a full 2^n tabulation and the textbook
// Shapley sum. Past the trained model and its probe it shares only the
// Shapley weights with the exact tier, whose closed form is a different
// computation.
// Comparing per-VM shares checks how the tick derived its dynamic power,
// the worth plan and the closed form with its corrections.
// Monte-Carlo ticks have no exact reference and are skipped, as are
// sets past deepMaxPlayers VMs.
func (a *Auditor) deepCheck(e *Estimator, snap hypervisor.Snapshot, alloc *Allocation, scale float64) {
	n := len(alloc.PerVM)
	if alloc.Method != "exact" || n > deepMaxPlayers {
		return
	}
	ref, err := e.referenceShares(snap, alloc.MeasuredPower)
	metrics().noteAuditDeep()
	if err != nil {
		a.violate(alloc, "deep-mismatch", fmt.Sprintf("reference exact solve failed: %v", err))
		metrics().noteAuditDeepMismatch()
		return
	}
	var maxDelta float64
	worst := -1
	for i := range alloc.PerVM {
		d := math.Abs(alloc.PerVM[i] - ref[i])
		if d > maxDelta {
			maxDelta, worst = d, i
		}
	}
	alloc.Prov.DeepChecked = true
	alloc.Prov.DeepMaxDeltaWatts = maxDelta
	if maxDelta > deepTol*scale {
		a.violate(alloc, "deep-mismatch",
			fmt.Sprintf("tier %s diverges from the reference solve by %g W at VM %d (tol %g)",
				alloc.Prov.Tier, maxDelta, worst, deepTol*scale))
		metrics().noteAuditDeepMismatch()
	}
}

// referenceShares is the deep check's exact solve of the snapshot's game
// at the measured total power. A snapshot with no running VM is all idle,
// so every share is 0.
func (e *Estimator) referenceShares(snap hypervisor.Snapshot, measuredTotal float64) ([]float64, error) {
	n := e.host.Set().Len()
	running, err := vm.RunningCoalition(snap.Running)
	if err != nil {
		return nil, err
	}
	if running.IsEmpty() {
		return make([]float64, n), nil
	}
	plan, err := e.ensurePlan()
	if err != nil {
		return nil, err
	}
	dyn := math.Max(0, measuredTotal-e.idlePower)
	worth, worthErr := planWorth(plan, running, snap.States, dyn)
	table := make([]float64, 1<<uint(n))
	if err := shapley.TabulateParallelInto(table, n, worth, e.cfg.Parallelism); err != nil {
		return nil, err
	}
	if err := worthErr(); err != nil {
		return nil, fmt.Errorf("core: worth evaluation: %w", err)
	}
	return shapley.ExactFromTable(n, table)
}
