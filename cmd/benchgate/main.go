// Command benchgate makes the BENCH_*.json trajectory enforceable: it
// diffs a fresh benchjson snapshot against the committed baseline and
// fails (exit 1) when a headline benchmark regressed beyond the
// tolerance — ns/op for speed, allocs/op for the zero-allocation pins.
//
// Usage:
//
//	benchgate -baseline BENCH_2026-08-08.json -fresh /tmp/fresh.json \
//	          [-tolerance 0.15] [-alloc-slack 2] [-min-ns-delta 500] \
//	          [-headline re1,re2,...]
//
// The headline set defaults to the benches the ROADMAP names as the
// performance contract: EstimateTick n=16 steady/all-dirty on the
// compiled plan, every grouped (sym/) arm, and the serving path's
// BenchmarkServeCached allocs pins. A headline bench missing from the
// fresh snapshot is a failure — a deleted benchmark silently un-gates its
// regression. Improvements always pass; bless an intentional regression
// by re-snapshotting the baseline (`make bench-json`) and committing it,
// with the justification in the commit message.
//
// Gate semantics, tuned so the gate is strict where measurements are
// deterministic and tolerant where they are not:
//
//   - a snapshot may list a benchmark several times (`go test -count`);
//     the gate compares the median of its rows, ns/op and allocs/op each,
//     so one stalled iteration cannot fail a change that moved nothing.
//   - allocs/op is machine-independent: any increase beyond the small
//     absolute slack fails at any magnitude.
//   - ns/op must exceed BOTH the relative tolerance and -min-ns-delta to
//     fail, so sub-microsecond benches are not failed on scheduler
//     jitter that is invisible at the multi-millisecond scale the
//     tolerance is meant to police.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"

	"vmpower/internal/cliutil"
	"vmpower/internal/stats"
)

// Result mirrors cmd/benchjson's output object (the subset the gate
// reads).
type Result struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// defaultHeadlines is the enforced performance contract.
var defaultHeadlines = []string{
	`^BenchmarkEstimateTick/n=16/(steady|alldirty)/plan=true$`,
	`^BenchmarkEstimateTick/sym/`,
	`^BenchmarkServeCached/`,
}

type gateConfig struct {
	tolerance  float64
	allocSlack float64
	minNsDelta float64
	headlines  []*regexp.Regexp
}

// cpuSuffix is the -N GOMAXPROCS suffix `go test -bench` appends on
// multi-core machines; stripped so snapshots from different machines
// compare by benchmark identity.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func normalize(name string) string {
	return cpuSuffix.ReplaceAllString(name, "")
}

// index maps normalized names to one result each: the median ns/op and
// the median allocs/op of the name's rows.
func index(results []Result) map[string]Result {
	ns := make(map[string][]float64, len(results))
	allocs := make(map[string][]float64, len(results))
	for _, r := range results {
		name := normalize(r.Name)
		ns[name] = append(ns[name], r.NsPerOp)
		if r.AllocsPerOp != nil {
			allocs[name] = append(allocs[name], *r.AllocsPerOp)
		}
	}
	out := make(map[string]Result, len(ns))
	for name, xs := range ns {
		// Percentile fails only on an empty slice; xs holds every row.
		m := Result{Name: name}
		m.NsPerOp, _ = stats.Percentile(xs, 50)
		if a, err := stats.Percentile(allocs[name], 50); err == nil {
			m.AllocsPerOp = &a
		}
		out[name] = m
	}
	return out
}

// runGate compares fresh against baseline and writes the verdict table.
// It returns false when any headline bench regressed or went missing.
func runGate(baseline, fresh []Result, cfg gateConfig, w io.Writer) bool {
	base := index(baseline)
	cur := index(fresh)
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}
	for _, re := range cfg.headlines {
		// Walk the matches in name order, so two logs of the same
		// inputs list the arms alike.
		var names []string
		for name := range base {
			if re.MatchString(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			b := base[name]
			f, found := cur[name]
			if !found {
				fail("%s: headline bench missing from fresh snapshot", name)
				continue
			}
			if f.NsPerOp > b.NsPerOp*(1+cfg.tolerance) && f.NsPerOp-b.NsPerOp > cfg.minNsDelta {
				fail("%s: ns/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
					name, b.NsPerOp, f.NsPerOp,
					100*(f.NsPerOp-b.NsPerOp)/b.NsPerOp, 100*cfg.tolerance)
				continue
			}
			if b.AllocsPerOp != nil {
				if f.AllocsPerOp == nil {
					fail("%s: baseline has allocs/op but fresh does not (run with -benchmem)", name)
					continue
				}
				if *f.AllocsPerOp > *b.AllocsPerOp*(1+cfg.tolerance)+cfg.allocSlack {
					fail("%s: allocs/op %.0f -> %.0f (slack %.0f)",
						name, *b.AllocsPerOp, *f.AllocsPerOp, cfg.allocSlack)
					continue
				}
			}
			fmt.Fprintf(w, "ok   %s: ns/op %.0f -> %.0f\n", name, b.NsPerOp, f.NsPerOp)
		}
		if len(names) == 0 {
			// A pattern with no baseline benches gates nothing. Fresh-only
			// matches mean a new bench family awaiting its first committed
			// snapshot — report, don't fail.
			freshOnly := 0
			for name := range cur {
				if re.MatchString(name) {
					freshOnly++
				}
			}
			if freshOnly > 0 {
				fmt.Fprintf(w, "note %s: %d new bench(es) not in baseline yet; re-snapshot to start gating them\n",
					re, freshOnly)
			} else {
				fail("%s: headline pattern matches nothing in baseline or fresh", re)
			}
		}
	}
	return ok
}

func load(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	if err := json.NewDecoder(f).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func main() {
	basePath := flag.String("baseline", "", "committed benchjson trajectory snapshot")
	freshPath := flag.String("fresh", "", "freshly measured benchjson snapshot")
	tolerance := flag.Float64("tolerance", 0.15, "relative ns/op (and allocs/op) regression tolerance")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op slack on top of the relative tolerance")
	minNsDelta := flag.Float64("min-ns-delta", 500, "ns/op regressions smaller than this absolute delta never fail")
	headlines := flag.String("headline", "", "comma list of headline regexes (default: the built-in contract)")
	version := cliutil.VersionFlag(nil)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "benchgate")
		return
	}
	if *basePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -fresh are required")
		os.Exit(2)
	}
	pats := defaultHeadlines
	if *headlines != "" {
		pats = strings.Split(*headlines, ",")
	}
	cfg := gateConfig{
		tolerance:  *tolerance,
		allocSlack: *allocSlack,
		minNsDelta: *minNsDelta,
	}
	for _, p := range pats {
		re, err := regexp.Compile(strings.TrimSpace(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: bad headline %q: %v\n", p, err)
			os.Exit(2)
		}
		cfg.headlines = append(cfg.headlines, re)
	}
	baseline, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if !runGate(baseline, fresh, cfg, os.Stdout) {
		fmt.Fprintln(os.Stdout, "benchgate: FAILED — see regressions above; bless intentional ones by re-snapshotting the baseline")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stdout, "benchgate: all headline benches within tolerance")
}
