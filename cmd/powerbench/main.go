// Command powerbench is the in-repo load generator for the serving
// path: it drives N concurrent HTTP clients against a live powerd and
// reports per-endpoint p50/p99 latency and throughput, plus
// ticks-disturbed — the number of estimation ticks whose Step latency
// degraded beyond 2x the unloaded baseline p99 while the scrape storm
// ran. That last number is the one the tick-publishing architecture
// exists to keep at zero: handlers serve pre-encoded snapshot bytes, so
// request volume should not contend with the tick loop.
//
// By default powerbench is self-hosted: it boots a powerd over a real
// listener (calibration included), measures an unloaded tick-latency
// baseline, then applies load while continuing to tick. Against an
// external daemon (-addr), it reports request latencies only —
// tick disturbance needs the Step loop in-process.
//
// Usage:
//
//	powerbench [-clients N] [-duration D] [-interval D] [-warmup N]
//	           [-endpoints list] [-vms specs] [-seed N] [-gobench]
//	powerbench -addr host:port [-clients N] [-duration D] [-endpoints list]
//
// With -gobench the report is emitted as `go test -bench` lines
// (BenchmarkServeLive/<endpoint>/p99 ...) so `benchjson` can archive it
// into the BENCH_*.json trajectory and `benchgate` can enforce it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vmpower/internal/cliutil"
	"vmpower/internal/core"
	"vmpower/internal/hypervisor"
	"vmpower/internal/machine"
	"vmpower/internal/meter"
	"vmpower/internal/obs"
	"vmpower/internal/powerd"
	"vmpower/internal/vm"
	"vmpower/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "powerbench:", err)
		os.Exit(1)
	}
}

// benchConfig is the parsed command line.
type benchConfig struct {
	addr      string
	clients   int
	duration  time.Duration
	interval  time.Duration
	warmup    int
	endpoints []string
	vms       string
	seed      int64
	gobench   bool
}

// endpointStats is the merged latency report for one endpoint.
type endpointStats struct {
	endpoint string
	path     string
	requests int
	errors   int
	p50      time.Duration
	p99      time.Duration
	qps      float64
}

// report is the full benchmark result.
type report struct {
	stats []endpointStats
	// Tick-loop disturbance (self-hosted mode only; external runs keep
	// loadTicks == 0 and print n/a).
	baselineP99 time.Duration
	tickP99     time.Duration
	loadTicks   int
	disturbed   int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("powerbench", flag.ContinueOnError)
	cfg := benchConfig{}
	fs.StringVar(&cfg.addr, "addr", "", "benchmark an external daemon at this address instead of self-hosting one")
	fs.IntVar(&cfg.clients, "clients", 8, "concurrent clients per endpoint")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "load duration")
	fs.DurationVar(&cfg.interval, "interval", 100*time.Millisecond, "tick interval of the self-hosted daemon")
	fs.IntVar(&cfg.warmup, "warmup", 30, "unloaded ticks measured for the baseline tick latency (self-hosted mode)")
	eps := fs.String("endpoints", "allocation,status,energy", "comma list of endpoints to load (allocation, status, energy, history, interactions, healthz, or full paths)")
	fs.StringVar(&cfg.vms, "vms", "web:small,db:medium,cache:small,batch:large", "VM specs for the self-hosted daemon")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.BoolVar(&cfg.gobench, "gobench", false, "emit the report as go-test benchmark lines for benchjson/benchgate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, e := range strings.Split(*eps, ",") {
		e = strings.TrimSpace(e)
		if e != "" {
			cfg.endpoints = append(cfg.endpoints, e)
		}
	}
	if len(cfg.endpoints) == 0 {
		return errors.New("no endpoints to benchmark")
	}
	if cfg.clients < 1 {
		return errors.New("clients must be >= 1")
	}
	rep, err := bench(cfg)
	if err != nil {
		return err
	}
	if cfg.gobench {
		writeGobench(out, rep)
	} else {
		writeText(out, rep)
	}
	return nil
}

// pathOf maps an endpoint shorthand to its URL path.
func pathOf(endpoint string) string {
	if strings.HasPrefix(endpoint, "/") {
		return endpoint
	}
	if endpoint == "healthz" {
		return "/healthz"
	}
	return "/api/v1/" + endpoint
}

// bench runs the configured benchmark: against -addr when set,
// otherwise against a freshly booted in-process powerd.
func bench(cfg benchConfig) (*report, error) {
	if cfg.addr != "" {
		rep := &report{}
		rep.stats = loadPhase(cfg, "http://"+cfg.addr, nil)
		return rep, nil
	}
	return benchSelf(cfg)
}

// benchSelf boots a powerd on a loopback listener, establishes the
// unloaded tick-latency baseline, then applies the load while the tick
// loop keeps running — the contended phase the report is about.
func benchSelf(cfg benchConfig) (*report, error) {
	srv, err := bootDaemon(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	baseURL := "http://" + ln.Addr().String()

	// Unloaded baseline: warmup ticks, each latency recorded.
	if cfg.warmup < 5 {
		cfg.warmup = 5
	}
	baseline := make([]time.Duration, 0, cfg.warmup)
	for i := 0; i < cfg.warmup; i++ {
		t0 := time.Now()
		if _, err := srv.Step(); err != nil {
			return nil, fmt.Errorf("baseline tick: %w", err)
		}
		baseline = append(baseline, time.Since(t0))
	}
	rep := &report{baselineP99: percentile(baseline, 0.99)}

	// Load phase: clients hammer while the tick loop continues at the
	// configured cadence on this goroutine.
	var tickLat []time.Duration
	stepper := func(stop <-chan struct{}) {
		ticker := time.NewTicker(cfg.interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				t0 := time.Now()
				if _, err := srv.Step(); err != nil {
					return
				}
				tickLat = append(tickLat, time.Since(t0))
			}
		}
	}
	rep.stats = loadPhase(cfg, baseURL, stepper)

	rep.loadTicks = len(tickLat)
	rep.tickP99 = percentile(tickLat, 0.99)
	threshold := 2 * rep.baselineP99
	for _, d := range tickLat {
		if d > threshold {
			rep.disturbed++
		}
	}
	return rep, nil
}

// loadPhase runs cfg.clients concurrent clients per endpoint for
// cfg.duration against baseURL and merges the latency samples. stepper,
// when non-nil, runs on the caller's behalf for the same window (the
// self-hosted tick loop).
func loadPhase(cfg benchConfig, baseURL string, stepper func(stop <-chan struct{})) []endpointStats {
	transport := &http.Transport{
		MaxIdleConns:        cfg.clients * len(cfg.endpoints),
		MaxIdleConnsPerHost: cfg.clients * len(cfg.endpoints),
	}
	client := &http.Client{Transport: transport, Timeout: 10 * time.Second}
	defer transport.CloseIdleConnections()

	type worker struct {
		samples []time.Duration
		errors  int
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	workers := make([][]*worker, len(cfg.endpoints))
	for i, ep := range cfg.endpoints {
		url := baseURL + pathOf(ep)
		workers[i] = make([]*worker, cfg.clients)
		for c := 0; c < cfg.clients; c++ {
			w := &worker{}
			workers[i][c] = w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					resp, err := client.Get(url)
					if err != nil {
						w.errors++
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode >= 400 {
						w.errors++
						continue
					}
					w.samples = append(w.samples, time.Since(t0))
				}
			}()
		}
	}

	stepDone := make(chan struct{})
	if stepper != nil {
		go func() {
			defer close(stepDone)
			stepper(stop)
		}()
	} else {
		close(stepDone)
	}
	time.Sleep(cfg.duration)
	close(stop)
	wg.Wait()
	<-stepDone

	stats := make([]endpointStats, len(cfg.endpoints))
	for i, ep := range cfg.endpoints {
		var merged []time.Duration
		errs := 0
		for _, w := range workers[i] {
			merged = append(merged, w.samples...)
			errs += w.errors
		}
		sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
		stats[i] = endpointStats{
			endpoint: ep,
			path:     pathOf(ep),
			requests: len(merged),
			errors:   errs,
			p50:      percentile(merged, 0.50),
			p99:      percentile(merged, 0.99),
			qps:      float64(len(merged)) / cfg.duration.Seconds(),
		}
	}
	return stats
}

// percentile returns the q-quantile of samples (sorted or not).
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// bootDaemon builds the self-hosted powerd: the same simulated Xeon
// deployment cmd/powerd runs, calibrated with a shortened offline phase
// (the load test needs a realistic serving surface, not a precise
// model).
func bootDaemon(cfg benchConfig) (*powerd.Server, error) {
	mach, err := machine.New(machine.XeonProfile(), machine.Pack)
	if err != nil {
		return nil, err
	}
	parsed, err := cliutil.ParseVMSpecs(cfg.vms, false)
	if err != nil {
		return nil, err
	}
	vms := make([]vm.VM, len(parsed))
	names := make([]string, len(parsed))
	for i, p := range parsed {
		vms[i] = vm.VM{Name: p.Name, Type: p.Type}
		names[i] = p.Name
	}
	set, err := vm.NewSet(vm.PaperCatalog(), vms)
	if err != nil {
		return nil, err
	}
	host, err := hypervisor.NewHost(mach, set)
	if err != nil {
		return nil, err
	}
	sim, err := meter.NewSim(host.PowerSource(), meter.SimOptions{
		NoiseStdDev: 0.25, Resolution: 0.1, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	est, err := core.New(host, sim, core.Config{
		Seed:                 cfg.seed,
		OfflineTicksPerCombo: 20,
		IdleMeasureTicks:     5,
	})
	if err != nil {
		return nil, err
	}
	if err := est.CollectOffline(); err != nil {
		return nil, err
	}
	suite := []string{"gcc", "gobmk", "sjeng", "omnetpp", "namd", "wrf", "tonto"}
	for i := range vms {
		gen, err := workload.ByName(suite[i%len(suite)], cfg.seed+int64(i))
		if err != nil {
			return nil, err
		}
		if err := host.Attach(vm.ID(i), gen); err != nil {
			return nil, err
		}
	}
	host.SetAll(true)
	srv, err := powerd.New(est, names, 600)
	if err != nil {
		return nil, err
	}
	if err := srv.SetInterval(cfg.interval); err != nil {
		return nil, err
	}
	srv.Instrument(obs.NewRegistry(),
		obs.NewLogger(io.Discard, obs.LevelError, obs.FormatKV), cfg.interval)
	return srv, nil
}

// writeText prints the human-readable report.
func writeText(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%-16s %10s %8s %12s %12s %10s\n",
		"endpoint", "requests", "errors", "p50", "p99", "qps")
	for _, s := range rep.stats {
		fmt.Fprintf(w, "%-16s %10d %8d %12s %12s %10.0f\n",
			s.endpoint, s.requests, s.errors, s.p50, s.p99, s.qps)
	}
	if rep.loadTicks > 0 {
		fmt.Fprintf(w, "\nticks under load:    %d\n", rep.loadTicks)
		fmt.Fprintf(w, "baseline tick p99:   %s\n", rep.baselineP99)
		fmt.Fprintf(w, "loaded tick p99:     %s\n", rep.tickP99)
		fmt.Fprintf(w, "ticks disturbed:     %d (Step latency > 2x unloaded p99)\n", rep.disturbed)
	} else {
		fmt.Fprintf(w, "\nticks disturbed:     n/a (external daemon; run self-hosted for tick disturbance)\n")
	}
}

// writeGobench prints the report as `go test -bench` lines so benchjson
// archives it (ns/op carries the p99; p50 and qps land in "extra").
func writeGobench(w io.Writer, rep *report) {
	for _, s := range rep.stats {
		if s.requests == 0 {
			continue
		}
		fmt.Fprintf(w, "BenchmarkServeLive/%s/p99 %d %d ns/op %d p50-ns %.0f qps\n",
			s.endpoint, s.requests, s.p99.Nanoseconds(), s.p50.Nanoseconds(), s.qps)
	}
	if rep.loadTicks > 0 {
		fmt.Fprintf(w, "BenchmarkServeLive/tick/p99 %d %d ns/op %d disturbed\n",
			rep.loadTicks, rep.tickP99.Nanoseconds(), rep.disturbed)
	}
}
