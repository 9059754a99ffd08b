// Command vmbench is the repository's end-to-end benchmark. One run
// hosts one workload's daemon (powerd or fleetd) in this process,
// calibrates it, serves its HTTP API on a loopback listener and drives
// its ticks on an open-loop schedule while two closed-loop billing
// pollers scrape it. It checks every allocation and a sample of the
// scraped bodies, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer ones) by name and unit, ending with one JSON line.
//
// Usage (from the repository root, through bench/run.sh, which builds
// this package first):
//
//	bash bench/run.sh -workload mask16 -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload sym200 -seed 1 -seconds 10 -trace 1
//	bash bench/run.sh -workload fleet32 -seed 1 -seconds 10 -runs 5
//
// See bench/README.md for the workloads, the load model and the metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
	}
	os.Exit(code)
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the daemons sees, reported by an
// untraced run. They must match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tick_p10_ms", "ms"},
	{"scrape_p50_ms", "ms"},
	{"scrape_rps", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// They must match BENCHMARK.json's per_layer list. A layer the workload
// does not exercise reports 0. The tick median and the two tails come
// first: they are end-to-end quantities, kept here because on a shared
// 2-CPU host they do not repeat within any allowed bound (see
// bench/README.md). Untraced runs print them too.
var perLayer = []metricDef{
	{"tick_p50_ms", "ms"},
	{"tick_p99_ms", "ms"},
	{"scrape_p99_ms", "ms"},
	{"core.snapshot_us", "us"},
	{"meter.read_us", "us"},
	{"vhc.worth_us", "us"},
	{"shapley.solve_us", "us"},
	{"core.normalize_us", "us"},
	{"powerd.publish_us", "us"},
	{"powerd.other_us", "us"},
	{"core.audit_deep_us", "us"},
	{"core.dirty_per_tick", "count"},
	{"core.evaluated_per_tick", "count"},
	{"core.reuse_ratio", "ratio"},
	{"runtime.allocs_per_tick", "count"},
	{"runtime.bytes_per_tick", "bytes"},
	{"runtime.gc_per_1k_ticks", "count"},
	{"scenario.apply_us", "us"},
	{"fleet.step_us", "us"},
	{"fleetd.publish_us", "us"},
	{"fleet.events_per_tick", "count"},
	{"http.allocation.client_us", "us"},
	{"http.allocation.server_us", "us"},
	{"http.allocation.bytes", "bytes"},
	{"http.allocation_since.client_us", "us"},
	{"http.allocation_since.bytes", "bytes"},
	{"http.status.client_us", "us"},
	{"http.status.server_us", "us"},
	{"http.status.bytes", "bytes"},
	{"http.energy.client_us", "us"},
	{"http.energy.server_us", "us"},
	{"http.energy.bytes", "bytes"},
	{"gen.tick_late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// jsonMetric and jsonResult are the result line every run ends with.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// run parses the command line, runs the workload (or, with -runs N, N
// child runs) and prints the report. The exit code is 2 for a usage
// error, 1 for a failed or incorrect run, 0 otherwise.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("vmbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured tick phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end ones")
	traceFile := fs.String("trace-file", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-<seed>.jsonl)")
	runs := fs.Int("runs", 1, "repeat the run this many times with seeds seed, seed+1, ... and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds <= 0:
		return 2, fmt.Errorf("-seconds must be positive, got %g", *seconds)
	case *runs < 1:
		return 2, fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	if *runs > 1 {
		return repeat(stdout, *name, *seed, *seconds, *trace, *runs)
	}
	// A traced run first repeats the untraced run of the same workload
	// and seed in this process: the tracing overhead is the difference
	// between the two.
	var base *runData
	if *trace == 1 {
		var err error
		if base, err = measure(w, *seed, *seconds, false); err != nil {
			return 1, err
		}
	}
	r, err := measure(w, *seed, *seconds, *trace == 1)
	if err != nil {
		return 1, err
	}
	if r.traced {
		path := *traceFile
		if path == "" {
			path = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", w.name, *seed)
		}
		if err := writeTrace(path, r.spans); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(r.spans), path)
	}
	res, err := report(stdout, w, *seed, r, base)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		firstErr := r.firstErr
		if base != nil && base.violation {
			firstErr = base.firstErr
		}
		return 1, fmt.Errorf("correctness violation: %v", firstErr)
	}
	return 0, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// report reduces a run to its metrics, prints them one per line with
// the sample counts behind them, and returns the result line. A traced
// run passes the untraced run it made first as base; its operations and
// correctness count towards the result too.
func report(out io.Writer, w workloadSpec, seed int64, r, base *runData) (*jsonResult, error) {
	res := &jsonResult{Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	values := map[string]float64{}
	notes := map[string]string{}

	scrapes, failedScrapes := 0, 0
	var lat []float64
	for _, s := range r.scrapers {
		scrapes += s.attempted
		failedScrapes += s.failed
		for ep := range s.lat {
			lat = s.appendLatencies(lat, endpoint(ep))
		}
	}
	res.Attempted, res.Failed = r.counts()
	res.Correct = !r.violation
	if base != nil {
		a, f := base.counts()
		res.Attempted += a
		res.Failed += f
		res.Correct = res.Correct && !base.violation
	}

	ticks, sorted := sortedCopy(r.tickMS), sortedCopy(lat)
	values["tick_p50_ms"], _ = nearestRank(ticks, 0.5)
	notes["tick_p50_ms"] = fmt.Sprintf("p50 of %d ticks", len(ticks))
	t := tailPercentile(ticks)
	values["tick_p99_ms"] = t.value
	notes["tick_p99_ms"] = fmt.Sprintf("%s of %d ticks, %d beyond", t.label(), t.n, t.beyond)
	t = tailPercentile(sorted)
	values["scrape_p99_ms"] = t.value
	notes["scrape_p99_ms"] = fmt.Sprintf("%s of %d scrapes, %d beyond", t.label(), t.n, t.beyond)
	var extra []metricDef
	if r.traced {
		defs = perLayer
		layerMetrics(r, base, values, notes)
	} else {
		extra = perLayer[:3]
		values["setup_s"] = median(r.setupS)
		notes["setup_s"] = fmt.Sprintf("median of %d set-ups %s", len(r.setupS), fmtList(r.setupS, "%.3f"))
		values["tick_p10_ms"], _ = nearestRank(ticks, 0.1)
		notes["tick_p10_ms"] = fmt.Sprintf("p10 of %d ticks", len(ticks))
		values["scrape_p50_ms"], _ = nearestRank(sorted, 0.5)
		notes["scrape_p50_ms"] = fmt.Sprintf("p50 of %d scrapes", len(sorted))
		values["scrape_rps"] = float64(len(lat)) / r.phase.Seconds()
		notes["scrape_rps"] = fmt.Sprintf("%d scrapes in %.3f s", len(lat), r.phase.Seconds())
		values["rss_peak_mb"] = r.rssMB
		notes["rss_peak_mb"] = "VmHWM of this process"
	}

	fmt.Fprintf(out, "workload %s seed %d: %d ticks every %v, %d pollers (%s)\n",
		w.name, seed, r.ticks, r.interval, len(r.scrapers), mixString(w))
	for _, m := range defs {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %g", m.name, v)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "%-32s %14.4f %-6s %s\n", m.name, v, m.unit, notes[m.name])
	}
	for _, m := range extra {
		fmt.Fprintf(out, "%-32s %14.4f %-6s %s (per-layer metric)\n", m.name, values[m.name], m.unit, notes[m.name])
	}
	fmt.Fprintf(out, "%-32s %14.4f %-6s %d of %d ticks failed\n", "tick_fail_ratio",
		ratio(r.tickErrors, r.ticks), "ratio", r.tickErrors, r.ticks)
	fmt.Fprintf(out, "%-32s %14.4f %-6s %d of %d scrapes failed\n", "scrape_fail_ratio",
		ratio(failedScrapes, scrapes), "ratio", failedScrapes, scrapes)
	late := sortedCopy(r.lateMS)
	lateMed, _ := nearestRank(late, 0.5)
	lateTail := tailPercentile(late)
	fmt.Fprintf(out, "tick start lateness against the schedule: p50 %.4f ms, %s %.4f ms\n", lateMed, lateTail.label(), lateTail.value)
	if r.opsTried > 0 {
		fmt.Fprintf(out, "scenario operations: %d applied, %d refused\n", r.opsTried-r.opsRefused, r.opsRefused)
	}
	if r.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", r.firstErr)
	}
	fmt.Fprintf(out, "alloc_digest %s\n", r.digest)
	return res, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mixString(w workloadSpec) string {
	var eps []string
	for _, ep := range w.mix {
		eps = append(eps, ep.String())
	}
	return fmt.Sprintf("%s, think %v", strings.Join(eps, "+"), w.think)
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// layerMetrics reduces a traced run to the per-layer metrics; base is
// the untraced run of the same workload and seed.
func layerMetrics(r, base *runData, values map[string]float64, notes map[string]string) {
	self := selfTimes(r.spans)
	med := func(name string) float64 { return median(self[name]) }
	for _, l := range stageLayers {
		values[l+"_us"] = med(l)
		notes[l+"_us"] = fmt.Sprintf("median self time of %d ticks", len(self[l]))
	}
	values["powerd.other_us"] = med("powerd.step")
	notes["powerd.other_us"] = "median Step self time outside the stages"
	values["scenario.apply_us"] = med("scenario.apply")
	values["fleet.step_us"] = med("fleet.step")
	values["fleetd.publish_us"] = med("fleetd.step")
	notes["fleetd.publish_us"] = "median Step self time outside Apply and fleet.Step"

	var deep, other []float64
	var dirty, evaluated, reused, events float64
	for _, rec := range r.recs {
		if rec.deep {
			deep = append(deep, rec.publishUS)
		} else {
			other = append(other, rec.publishUS)
		}
		dirty += float64(rec.dirty)
		evaluated += float64(rec.evaluated)
		reused += float64(rec.reused)
		events += float64(rec.events)
	}
	n := float64(max(1, len(r.recs)))
	if len(deep) > 0 {
		values["core.audit_deep_us"] = median(deep) - median(other)
	}
	notes["core.audit_deep_us"] = fmt.Sprintf("%d deep-audited ticks against %d others", len(deep), len(other))
	values["core.dirty_per_tick"] = dirty / n
	values["core.evaluated_per_tick"] = evaluated / n
	if evaluated+reused > 0 {
		values["core.reuse_ratio"] = reused / (evaluated + reused)
	}
	values["fleet.events_per_tick"] = events / n
	values["runtime.allocs_per_tick"] = r.allocs / n
	values["runtime.bytes_per_tick"] = r.allocBytes / n
	values["runtime.gc_per_1k_ticks"] = r.gcCycles * 1000 / float64(r.ticks)
	for _, k := range []string{"core.dirty_per_tick", "core.evaluated_per_tick", "core.reuse_ratio",
		"fleet.events_per_tick", "runtime.allocs_per_tick", "runtime.bytes_per_tick"} {
		notes[k] = fmt.Sprintf("over %d recorded ticks", len(r.recs))
	}

	for ep := endpoint(0); ep < numEndpoints; ep++ {
		key := "http." + ep.String()
		var lat []float64
		var body int64
		for _, s := range r.scrapers {
			lat = s.appendLatencies(lat, ep)
			body += s.bytes[ep]
		}
		values[key+".client_us"] = median(lat) * 1e3
		notes[key+".client_us"] = fmt.Sprintf("median of %d requests", len(lat))
		if len(lat) > 0 {
			values[key+".bytes"] = float64(body) / float64(len(lat))
		}
		if c := r.serverCount[ep.path()]; c > 0 && ep != epSince {
			values[key+".server_us"] = r.serverSum[ep.path()] / c * 1e6
			notes[key+".server_us"] = fmt.Sprintf("mean of %.0f requests to %s", c, ep.path())
		}
	}

	t := tailPercentile(sortedCopy(r.lateMS))
	values["gen.tick_late_p99_ms"] = t.value
	notes["gen.tick_late_p99_ms"] = fmt.Sprintf("%s of %d ticks, %d beyond", t.label(), t.n, t.beyond)
	traced, _ := nearestRank(sortedCopy(r.tickMS), 0.1)
	untraced, _ := nearestRank(sortedCopy(base.tickMS), 0.1)
	if untraced > 0 {
		values["trace.overhead_pct"] = (traced - untraced) / untraced * 100
	}
	notes["trace.overhead_pct"] = fmt.Sprintf("tick p10 %.4f ms traced vs %.4f ms in the untraced run of this seed",
		traced, untraced)
}

// repeat runs the workload n times as child processes, seeds seed..seed+n-1,
// and prints each metric's median, quartiles and spread (the quartile
// distance over the median) the way statistics.quantiles computes them.
func repeat(stdout io.Writer, name string, seed int64, seconds float64, trace, n int) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	total := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(s),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, digest, err := parseRun(out.Bytes())
		if err != nil {
			return 1, fmt.Errorf("run %d (seed %d): %v (exit: %v)", i+1, s, err, runErr)
		}
		fmt.Fprintf(stdout, "run %d seed %d: correct=%v attempted=%d failed=%d alloc_digest=%s\n",
			i+1, s, res.Correct, res.Attempted, res.Failed, digest)
		total.Correct = total.Correct && res.Correct && runErr == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-32s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, k := range names {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(stdout, "%-32s %14.4f %14.4f %14.4f %7.1f%% %s %s\n", k, med, q1, q3, spread*100, units[k], fmtList(values[k], "%.4g"))
		total.Metrics[k] = jsonMetric{Value: med, Unit: units[k]}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1, errors.New("at least one run failed or was incorrect")
	}
	return 0, nil
}

// parseRun extracts the result line and the alloc_digest of one run's
// output.
func parseRun(out []byte) (*jsonResult, string, error) {
	var last, digest string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "alloc_digest "); ok {
			digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, "", fmt.Errorf("no result line: %w", err)
	}
	return &res, digest, nil
}
