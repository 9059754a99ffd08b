// Command fleetd runs multi-host power accounting as a monitoring
// daemon: it places a VM request list across a simulated host pool,
// calibrates every host, drives the fault-isolated fleet tick at a
// fixed interval, and serves rollup allocations, per-host degradation
// state and cumulative per-tenant energy over HTTP/JSON. A host whose
// meter fails degrades or is quarantined on its own — the rest of the
// pool keeps accounting.
//
// Usage:
//
//	fleetd [-listen addr] [-hosts N] [-vms name:type:tenant[:workload],...]
//	       [-interval dur] [-seed N] [-parallelism N] [-probe N]
//	       [-holdover N] [-stuck-threshold N] [-meter-noise W]
//	       [-calibration-ticks N] [-fault-host H] [-fault-* ...]
//	       [-scenario spec] [-scenario-seed N]
//	       [-log-level L] [-log-format F] [-pprof] [-smoke]
//
// Endpoints:
//
//	GET /api/v1/status
//	GET /api/v1/allocation
//	GET /api/v1/allocation?since=TICK  (only what changed after TICK)
//	GET /api/v1/energy
//	GET /api/v1/scenario          (lifecycle scenario progress, with -scenario)
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
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vmpower/cmd/internal/daemon"
	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/faults"
	"vmpower/internal/fleet"
	"vmpower/internal/fleetd"
	"vmpower/internal/obs"
	"vmpower/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

const defaultVMs = "web1:xlarge:acme:gcc,web2:xlarge:acme:gobmk,db1:large:acme:sjeng," +
	"train1:xlarge:ml-corp:omnetpp,train2:large:ml-corp:namd,cache1:medium:ml-corp:wrf," +
	"dev1:small:edu-lab:tonto"

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:7078", "HTTP listen address")
		hosts     = flag.Int("hosts", 3, "physical machines in the pool")
		vmsFlag   = flag.String("vms", defaultVMs, "comma list of name:type:tenant[:workload] VM specs")
		interval  = flag.Duration("interval", time.Second, "fleet tick interval")
		seed      = flag.Int64("seed", 1, "random seed")
		par       = flag.Int("parallelism", 0, "host workers for calibration and every tick (0 = all cores, 1 = serial); models and ticks are identical at any setting")
		probe     = flag.Int("probe", 5, "readmission probe cadence for quarantined hosts, in ticks (negative disables)")
		holdover  = flag.Int("holdover", 10, "serve a host from its last good meter sample for up to this many ticks during an outage (negative disables)")
		stuckAt   = flag.Int("stuck-threshold", 0, "reject a reading repeated this many times in a row as a stuck meter (0 disables)")
		noise     = flag.Float64("meter-noise", 0.25, "wall meter Gaussian sigma in watts (0 = noiseless)")
		calib     = flag.Int("calibration-ticks", 0, "per-combination offline sample count (0 = default)")
		fHost     = flag.Int("fault-host", 0, "host index the -fault-* injector wraps")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
		smoke     = flag.Bool("smoke", false, "self-test: serve on an ephemeral port, run a few ticks, scrape /healthz, /metrics and /api/v1/events, exit")
		auditDeep = flag.Int("audit-deep", 60, "re-solve every Nth exactly-solved host tick with the independent textbook reference and compare (0 disables deep checks; the cheap per-tick audit always runs)")
		scenFlag  = flag.String("scenario", "", "lifecycle scenario DSL (subject@tick:kind[:args], comma list; e.g. vm1@5:migrate:1:3,host:0@10:drain:2)")
		scenSeed  = flag.Int64("scenario-seed", 1, "seed for the scenario autoscale burst stream")
		version   = cliutil.VersionFlag(nil)
		logCfg    = cliutil.LogFlags(nil)
		faultCfg  = cliutil.FaultFlags(nil)
	)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "fleetd")
		return nil
	}

	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}

	specs, err := cliutil.ParseFleetVMSpecs(*vmsFlag)
	if err != nil {
		return err
	}
	reqs := make([]fleet.VMRequest, len(specs))
	for i, sp := range specs {
		reqs[i] = fleet.VMRequest{
			Name:         sp.Name,
			Tenant:       sp.Tenant,
			Type:         sp.Type,
			Workload:     sp.Workload,
			WorkloadSeed: *seed + int64(i),
		}
	}

	parallelism := *par
	if parallelism == 0 {
		parallelism = -1 // the flag's 0 means all cores, which par.Workers reads as -1
	}
	f, err := fleet.New(fleet.Config{
		Hosts:                *hosts,
		Seed:                 *seed,
		MeterNoise:           *noise,
		CalibrationTicks:     *calib,
		Parallelism:          parallelism,
		TickInterval:         *interval,
		QuarantineProbeTicks: *probe,
		HoldoverTicks:        *holdover,
		StuckThreshold:       *stuckAt,
	}, reqs)
	if err != nil {
		return err
	}
	for name, h := range f.Placement() {
		logger.Debug("placed", "vm", name, "host", h)
	}

	// The injector starts disarmed, so calibration below always sees the
	// clean meters; chaos is armed just before the serve loop.
	var injector *faults.Meter
	if faultCfg.Active() {
		opts, err := faultCfg.Options(*seed)
		if err != nil {
			return err
		}
		if *fHost < 0 || *fHost >= f.Hosts() {
			return fmt.Errorf("-fault-host %d out of range (fleet has %d non-empty hosts)", *fHost, f.Hosts())
		}
		if injector, err = f.InjectFaults(*fHost, opts); err != nil {
			return err
		}
	}

	logger.Info("calibrating", "hosts", f.Hosts(), "vms", len(reqs))
	if err := f.Calibrate(); err != nil {
		return err
	}
	logger.Info("calibrated")

	srv, err := fleetd.New(f)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	srv.Instrument(reg, logger, *interval)
	srv.EnableAudit(core.AuditConfig{DeepEvery: *auditDeep})

	var engine *scenario.Engine
	if *scenFlag != "" {
		events, err := cliutil.ParseScenario(*scenFlag)
		if err != nil {
			return err
		}
		if engine, err = scenario.New(f, events, *scenSeed); err != nil {
			return err
		}
		srv.SetScenario(engine)
		logger.Info("scenario loaded", "events", len(events), "seed", *scenSeed)
	}

	if injector != nil {
		injector.SetArmed(true)
		logger.Info("fault injection armed",
			"host", *fHost, "dropout", faultCfg.Dropout, "spike", faultCfg.Spike,
			"nan", faultCfg.NaN, "stuck", faultCfg.Stuck)
	}

	if *smoke {
		return runSmoke(srv, engine, injector, logger)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGQUIT dumps the flight recorder to stderr without exiting.
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

// runSmoke is the CI self-test: serve on an ephemeral loopback port, run
// a handful of ticks as fast as they complete, then scrape /healthz,
// /metrics and /api/v1/events and verify the fleet surface is present —
// including a full Prometheus-exposition lint of the /metrics body, so a
// malformed family or duplicate series fails CI instead of a scraper.
// With a scenario loaded the run is long enough to play the whole script
// and /api/v1/scenario is scraped too (the lifecycle smoke test).
func runSmoke(srv *fleetd.Server, engine *scenario.Engine, injector *faults.Meter, logger *obs.Logger) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	defer func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	ticks := 10
	if engine != nil {
		ticks = 30
	}
	for i := 0; i < ticks; i++ {
		if _, err := srv.Step(); err != nil {
			return fmt.Errorf("smoke: tick %d: %w", i+1, err)
		}
		if injector != nil {
			injector.NextTick()
		}
	}

	base := "http://" + ln.Addr().String()
	health, err := scrape(base + "/healthz")
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	for _, want := range []string{`"status"`, `"hosts"`} {
		if !strings.Contains(health, want) {
			return fmt.Errorf("smoke: /healthz missing %s: %s", want, health)
		}
	}
	metrics, err := scrape(base + "/metrics")
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	for _, want := range []string{
		`vmpower_fleet_hosts{state="healthy"}`,
		fmt.Sprintf("vmpower_fleet_ticks_total %d", ticks),
		"vmpower_fleet_tenant_watts",
		"vmpower_fleet_tick_duration_seconds_bucket",
		"vmpower_build_info{",
		fmt.Sprintf("vmpower_fleet_audit_checks_total %d", ticks),
		"vmpower_audit_checks_total",
		"vmpower_tick_skew_seconds",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("smoke: /metrics missing %q", want)
		}
	}
	if problems := obs.LintExposition(strings.NewReader(metrics)); len(problems) > 0 {
		return fmt.Errorf("smoke: /metrics exposition lint: %s", strings.Join(problems, "; "))
	}
	if !strings.Contains(metrics, "vmpower_fleet_audit_violations_total 0") {
		return fmt.Errorf("smoke: fleet conservation violations reported:\n%s", metrics)
	}
	if !strings.Contains(metrics, "vmpower_audit_violations_total 0") {
		return fmt.Errorf("smoke: per-tick audit violations reported:\n%s", metrics)
	}
	events, err := scrape(base + "/api/v1/events?since=0")
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	for _, want := range []string{`"since"`, `"next"`, `"events"`} {
		if !strings.Contains(events, want) {
			return fmt.Errorf("smoke: /api/v1/events missing %s: %s", want, events)
		}
	}
	if engine != nil {
		scen, err := scrape(base + "/api/v1/scenario")
		if err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		for _, want := range []string{`"events"`, `"applied"`, `"done":true`, `"refused":0`} {
			if !strings.Contains(scen, want) {
				return fmt.Errorf("smoke: /api/v1/scenario missing %s: %s", want, scen)
			}
		}
		// The lifecycle journal and counters must have recorded the script.
		for _, want := range []string{
			`vmpower_fleet_lifecycle_events_total{type="migrate_start"}`,
			`vmpower_fleet_lifecycle_events_total{type="migrate_finish"}`,
			`vmpower_fleet_lifecycle_events_total{type="drain_finish"}`,
			`vmpower_fleet_migrations_total{result="completed"}`,
		} {
			if !strings.Contains(metrics, want) {
				return fmt.Errorf("smoke: /metrics missing %q", want)
			}
		}
		for _, want := range []string{"migrate_start", "drain_start", "drain_finish"} {
			if !strings.Contains(events, want) {
				return fmt.Errorf("smoke: /api/v1/events missing lifecycle event %q", want)
			}
		}
		logger.Info("scenario smoke", "status", strings.TrimSpace(scen))
	}
	logger.Info("smoke ok", "addr", base, "healthz", strings.TrimSpace(health))
	fmt.Println("fleetd smoke: ok")
	return nil
}

// scrape GETs url and returns the body, insisting on a 2xx status.
func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return string(body), nil
}
