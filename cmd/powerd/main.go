// Command powerd runs the power-accounting pipeline as a monitoring
// daemon: it calibrates a simulated deployment, drives the online
// estimator at a fixed interval, and serves live allocations, history and
// cumulative per-VM energy over HTTP/JSON.
//
// Usage:
//
//	powerd [-listen addr] [-vms name:type,...] [-interval dur] [-seed N]
//	       [-parallelism N] [-pprof] [-log-level L] [-log-format F]
//
// Endpoints:
//
//	GET /api/v1/status
//	GET /api/v1/allocation
//	GET /api/v1/allocation?since=TICK  (only the VMs changed after TICK)
//	GET /api/v1/history?n=K
//	GET /api/v1/energy
//	GET /api/v1/interactions      (live pairwise interference matrix)
//	GET /api/v1/events?since=SEQ  (tick event journal)
//	GET /healthz
//	GET /metrics          (Prometheus text format)
//	GET /metrics.json
//	GET /debug/flight     (flight-recorder dump; SIGQUIT dumps to stderr)
//	GET /debug/pprof/*    (with -pprof)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vmpower/cmd/internal/daemon"
	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/faults"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/powerd"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "powerd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:7077", "HTTP listen address")
		vmsFlag   = flag.String("vms", "vm1a:small,vm1b:small,vm2:medium,vm3:large,vm4:xlarge", "comma list of name:type VM specs")
		interval  = flag.Duration("interval", time.Second, "estimation interval (the paper's prototype samples at 1 Hz)")
		seed      = flag.Int64("seed", 1, "random seed")
		history   = flag.Int("history", 600, "allocation history ring size")
		saveModel = flag.String("save-model", "", "write the calibration model to this file after the offline phase")
		loadModel = flag.String("load-model", "", "skip the offline phase and load a model written by -save-model")
		par       = flag.Int("parallelism", 0, "Shapley engine workers (0 = all cores, 1 = serial); allocations are identical at any setting")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		holdover  = flag.Int("holdover", 10, "serve from the last good meter sample for up to this many ticks during an outage (negative disables)")
		stuckAt   = flag.Int("stuck-threshold", 0, "reject a reading repeated this many times in a row as a stuck meter (0 disables)")
		auditDeep = flag.Int("audit-deep", 60, "re-solve every Nth exactly-solved tick with the independent textbook reference and compare (0 disables deep checks; the cheap per-tick audit always runs)")
		version   = cliutil.VersionFlag(nil)
		logCfg    = cliutil.LogFlags(nil)
		faultCfg  = cliutil.FaultFlags(nil)
	)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "powerd")
		return nil
	}

	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}

	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		return err
	}
	parsed, err := cliutil.ParseVMSpecs(*vmsFlag, false)
	if err != nil {
		return err
	}
	vms := make([]vm.VM, len(parsed))
	names := make([]string, len(parsed))
	for i, p := range parsed {
		vms[i] = vm.VM{Name: p.Name, Type: p.Type}
		names[i] = p.Name
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		return err
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		return err
	}
	sim, err := meter.NewSim(host.PowerSource(), meter.SimOptions{
		NoiseStdDev: 0.25, Resolution: 0.1, Seed: *seed,
	})
	if err != nil {
		return err
	}
	var m meter.Meter = sim
	var injector *faults.Meter
	if faultCfg.Active() {
		opts, err := faultCfg.Options(*seed)
		if err != nil {
			return err
		}
		// The injector starts disarmed, so calibration below always sees
		// the clean meter; chaos is armed just before the serve loop.
		if injector, err = faults.Wrap(sim, opts); err != nil {
			return err
		}
		m = injector
	}
	parallelism := *par
	if parallelism == 0 {
		parallelism = -1 // the flag's 0 means all cores, which par.Workers reads as -1
	}
	est, err := core.New(host, m, core.Config{
		Seed:           *seed,
		Parallelism:    parallelism,
		HoldoverTicks:  *holdover,
		StuckThreshold: *stuckAt,
	})
	if err != nil {
		return err
	}
	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			return fmt.Errorf("opening model: %w", err)
		}
		err = est.LoadModel(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		logger.Info("loaded model", "path", *loadModel, "idle_watts", est.IdlePower())
	} else {
		logger.Info("calibrating")
		if err := est.CollectOffline(); err != nil {
			return err
		}
		logger.Info("calibrated", "idle_watts", est.IdlePower())
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			return fmt.Errorf("creating model file: %w", err)
		}
		err = est.SaveModel(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		logger.Info("saved model", "path", *saveModel)
	}

	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	for i := range vms {
		gen, err := workload.ByName(suite[i%len(suite)], *seed+int64(i))
		if err != nil {
			return err
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			return err
		}
	}
	host.SetAll(true)

	srv, err := powerd.New(est, names, *history)
	if err != nil {
		return err
	}
	// Energy integrates watts over the actual stepping cadence, not an
	// assumed 1 Hz.
	if err := srv.SetInterval(*interval); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, logger, *interval)
	srv.EnableAudit(core.AuditConfig{DeepEvery: *auditDeep})

	if injector != nil {
		injector.SetArmed(true)
		logger.Info("fault injection armed",
			"dropout", faultCfg.Dropout, "spike", faultCfg.Spike,
			"nan", faultCfg.NaN, "stuck", faultCfg.Stuck)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the flight recorder to stderr without exiting — the
	// classic "what were the last few minutes" post-mortem trigger.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)

	return daemon.Run(ctx, daemon.Loop{
		Addr:     *listen,
		Handler:  srv.Handler(),
		Pprof:    *pprofOn,
		Interval: *interval,
		Step: func() error {
			_, err := srv.Step()
			if injector != nil {
				injector.NextTick()
			}
			return err
		},
		Quit: quitCh,
		Dump: srv.DumpFlight,
		Log:  logger,
	})
}
