// Command powersim boots the simulated prototype and streams live per-VM
// power estimates — the paper's Fig. 8 online pipeline as a CLI.
//
// Usage:
//
//	powersim [-machine xeon16|pentium] [-vms spec,spec,...] [-ticks N]
//	         [-seed N] [-idle none|equal|proportional] [-interval dur] [-csv]
//	         [-parallelism N]
//
// Each VM spec is name:type with type one of small, medium, large, xlarge:
//
//	powersim -vms web:small,db:large -ticks 20
//
// Workloads are assigned round-robin from the SPEC-like suite; use
// -workloads to override (comma list matched to the VM list).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vmpower"
	"vmpower/internal/cliutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "powersim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		machineName = flag.String("machine", "xeon16", "machine profile: xeon16 or pentium")
		vmsFlag     = flag.String("vms", "vm1a:small,vm1b:small,vm2:medium,vm3:large,vm4:xlarge", "comma list of name:type VM specs")
		workloads   = flag.String("workloads", "", "comma list of benchmarks matched to -vms (default: round-robin SPEC suite)")
		ticks       = flag.Int("ticks", 30, "online estimation ticks to run")
		seed        = flag.Int64("seed", 1, "random seed")
		idle        = flag.String("idle", "none", "idle-power attribution: none, equal or proportional")
		interval    = flag.Duration("interval", 0, "wall-clock delay between ticks (0 = as fast as possible; 1s mimics the prototype)")
		csv         = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		record      = flag.String("record", "", "write a replay trace (JSON lines) to this file; feed it to vmbill -replay")
		par         = flag.Int("parallelism", 0, "Shapley engine workers (0 = all cores, 1 = serial); allocations are identical at any setting")
		version     = cliutil.VersionFlag(nil)
		logCfg      = cliutil.LogFlags(nil)
		faultCfg    = cliutil.FaultFlags(nil)
	)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "powersim")
		return nil
	}

	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}

	var model vmpower.MachineModel
	switch *machineName {
	case "xeon16":
		model = vmpower.Xeon16
	case "pentium":
		model = vmpower.Pentium
	default:
		return fmt.Errorf("unknown machine %q", *machineName)
	}

	parsed, err := cliutil.ParseVMSpecs(*vmsFlag, false)
	if err != nil {
		return err
	}
	specs := make([]vmpower.VMSpec, len(parsed))
	for i, p := range parsed {
		specs[i] = vmpower.VMSpec{Name: p.Name, Type: vmpower.VMType(p.Type)}
	}

	parallelism := *par
	if parallelism == 0 {
		parallelism = -1 // the flag's 0 means all cores, which par.Workers reads as -1
	}
	sys, err := vmpower.New(vmpower.Config{
		Machine:         model,
		VMs:             specs,
		Seed:            *seed,
		IdleAttribution: *idle,
		Parallelism:     parallelism,
	})
	if err != nil {
		return err
	}

	if faultCfg.Active() {
		opts, err := faultCfg.Options(*seed)
		if err != nil {
			return err
		}
		if err := sys.InjectFaults(opts); err != nil {
			return err
		}
		logger.Info("fault injection enabled",
			"dropout", opts.DropoutProb, "spike", opts.SpikeProb,
			"nan", opts.NaNProb, "stuck", faultCfg.Stuck, "seed", opts.Seed)
	}

	logger.Info("calibrating", "vms", len(specs), "machine", *machineName)
	start := time.Now()
	if err := sys.Calibrate(); err != nil {
		return err
	}
	logger.Info("calibrated",
		"elapsed", time.Since(start).Round(time.Millisecond).String(),
		"idle_watts", sys.IdlePower())

	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	var assigned []string
	if *workloads != "" {
		assigned = strings.Split(*workloads, ",")
		if len(assigned) != len(specs) {
			return fmt.Errorf("-workloads lists %d entries for %d VMs", len(assigned), len(specs))
		}
	} else {
		for i := range specs {
			assigned = append(assigned, suite[i%len(suite)])
		}
	}
	for i, spec := range specs {
		if err := sys.RunWorkload(spec.Name, strings.TrimSpace(assigned[i]), *seed+int64(i)); err != nil {
			return err
		}
		logger.Info("workload attached", "vm", spec.Name, "benchmark", strings.TrimSpace(assigned[i]))
	}

	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return fmt.Errorf("creating trace %s: %w", *record, err)
		}
		defer func() {
			if err := sys.StopRecording(); err != nil {
				logger.Error("flushing trace", "err", err)
			}
			if err := f.Close(); err != nil {
				logger.Error("closing trace", "err", err)
			}
		}()
		if err := sys.StartRecording(f); err != nil {
			return err
		}
		logger.Info("recording trace", "path", *record)
	}

	names := sys.VMNames()
	if *csv {
		fmt.Printf("tick,measured,dynamic")
		for _, n := range names {
			fmt.Printf(",%s", n)
		}
		fmt.Println()
	} else {
		fmt.Printf("%6s %9s %9s", "tick", "meter(W)", "dyn(W)")
		for _, n := range names {
			fmt.Printf(" %9s", n)
		}
		fmt.Println()
	}

	var degradedTicks int
	err = sys.Run(*ticks, func(a *vmpower.Allocation) bool {
		if a.Degraded() {
			degradedTicks++
		}
		if *csv {
			fmt.Printf("%d,%.2f,%.2f", a.Tick(), a.MeasuredPower(), a.DynamicPower())
			for _, n := range names {
				fmt.Printf(",%.3f", a.Watts(n))
			}
			fmt.Println()
		} else {
			fmt.Printf("%6d %9.1f %9.1f", a.Tick(), a.MeasuredPower(), a.DynamicPower())
			for _, n := range names {
				fmt.Printf(" %9.2f", a.Watts(n))
			}
			if a.Degraded() {
				fmt.Printf("  degraded(%s, age %d)", a.DegradedReason(), a.HoldoverAge())
			}
			fmt.Println()
		}
		if *interval > 0 {
			time.Sleep(*interval)
		}
		return true
	})
	if faultCfg.Active() {
		c := sys.FaultCounts()
		logger.Info("fault summary",
			"degraded_ticks", degradedTicks,
			"dropouts", c.Dropouts, "spikes", c.Spikes, "nans", c.NaNs,
			"stuck", c.Stuck, "errors", c.Errors)
	}
	return err
}
