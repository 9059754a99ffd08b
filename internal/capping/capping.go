// Package capping implements per-VM power capping — the management
// application the paper's introduction motivates ("VM power measurement
// can effectively enable power caps to be enforced on a per-VM basis").
//
// A Controller closes the loop between the Shapley power estimator and
// the hypervisor's CPU limits: each tick it compares every capped VM's
// attributed power Φ_i against its cap and adjusts the VM's CPU ceiling
// multiplicatively (AIMD-flavoured: multiplicative throttle on breach,
// additive slow release when comfortably below the cap). Because the
// Shapley allocation is efficient against the meter, the sum of caps is
// also a machine-level budget guarantee.
package capping

import (
	"errors"
	"fmt"
	"sort"

	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/vm"
)

// The control loop's constants.
const (
	// releaseStep is the additive CPU-limit increase per tick while a
	// capped VM draws less than releaseFraction of its cap.
	releaseStep = 0.05
	// releaseFraction is the fraction of the cap below which the limit
	// is released.
	releaseFraction = 0.9
	// minLimit floors the CPU ceiling so a capped VM is never starved
	// completely.
	minLimit = 0.05
	// headroom scales the throttle target so the controller aims
	// slightly below the cap, absorbing estimation noise.
	headroom = 0.95
)

// Action records one control decision, for logging and tests.
type Action struct {
	// VM is the throttled/released VM.
	VM vm.ID
	// Power is the VM's attributed power at decision time (W).
	Power float64
	// Cap is its configured cap (W).
	Cap float64
	// OldLimit and NewLimit are the CPU ceilings before and after.
	OldLimit, NewLimit float64
}

// String renders the action.
func (a Action) String() string {
	verb := "release"
	if a.NewLimit < a.OldLimit {
		verb = "throttle"
	}
	return fmt.Sprintf("%s vm%d: %.2f W of %.2f W cap, limit %.2f → %.2f",
		verb, a.VM, a.Power, a.Cap, a.OldLimit, a.NewLimit)
}

// Controller enforces per-VM power caps on a host.
type Controller struct {
	host *hypervisor.Host
	caps map[vm.ID]float64
}

// New builds a Controller for the host.
func New(host *hypervisor.Host) (*Controller, error) {
	if host == nil {
		return nil, errors.New("capping: nil host")
	}
	return &Controller{host: host, caps: make(map[vm.ID]float64)}, nil
}

// SetCap installs a power cap (watts of attributed dynamic power) for a VM.
func (c *Controller) SetCap(id vm.ID, watts float64) error {
	if _, err := c.host.Set().VM(id); err != nil {
		return err
	}
	if watts <= 0 {
		return fmt.Errorf("capping: cap %g W must be positive", watts)
	}
	c.caps[id] = watts
	return nil
}

// RemoveCap uninstalls a VM's cap and lifts its CPU limit.
func (c *Controller) RemoveCap(id vm.ID) error {
	if _, ok := c.caps[id]; !ok {
		return nil
	}
	delete(c.caps, id)
	return c.host.SetCPULimit(id, 1)
}

// Observe feeds one allocation into the control loop and applies the
// resulting CPU-limit adjustments to the hypervisor. It returns the
// actions taken this tick (possibly none), sorted by VM ID.
func (c *Controller) Observe(alloc *core.Allocation) ([]Action, error) {
	if alloc == nil {
		return nil, errors.New("capping: nil allocation")
	}
	var actions []Action
	ids := make([]vm.ID, 0, len(c.caps))
	for id := range c.caps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		capW := c.caps[id]
		if int(id) >= len(alloc.PerVM) {
			return nil, fmt.Errorf("capping: allocation has %d VMs, cap set on vm%d", len(alloc.PerVM), id)
		}
		power := alloc.PerVM[int(id)]
		limit, err := c.host.CPULimit(id)
		if err != nil {
			return nil, err
		}
		newLimit := limit
		switch {
		case power > capW:
			// Multiplicative throttle toward the headroom-adjusted cap.
			// Power is roughly proportional to the CPU ceiling, so this
			// converges in a few ticks.
			newLimit = limit * headroom * capW / power
			if newLimit < minLimit {
				newLimit = minLimit
			}
		case power < releaseFraction*capW && limit < 1:
			newLimit = limit + releaseStep
			if newLimit > 1 {
				newLimit = 1
			}
		}
		if newLimit == limit {
			continue
		}
		if err := c.host.SetCPULimit(id, newLimit); err != nil {
			return nil, err
		}
		actions = append(actions, Action{
			VM: id, Power: power, Cap: capW,
			OldLimit: limit, NewLimit: newLimit,
		})
	}
	return actions, nil
}

// Run drives the estimator for n ticks with the control loop engaged and
// reports, per capped VM, the number of ticks spent above its cap.
func (c *Controller) Run(est *core.Estimator, n int) (map[vm.ID]int, error) {
	breaches := make(map[vm.ID]int, len(c.caps))
	var loopErr error
	err := est.Run(n, func(alloc *core.Allocation) bool {
		for id, capW := range c.caps {
			if alloc.PerVM[int(id)] > capW {
				breaches[id]++
			}
		}
		if _, err := c.Observe(alloc); err != nil {
			loopErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = loopErr
	}
	return breaches, err
}
