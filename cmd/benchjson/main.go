// Command benchjson converts `go test -bench` output into JSON, so
// benchmark runs can be archived and diffed across commits without
// re-parsing the text format.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH.json
//
// Each benchmark line becomes one object carrying the name, iteration
// count, ns/op, and — when -benchmem is on — B/op and allocs/op. Custom
// metrics reported via b.ReportMetric land in "extra" keyed by unit.
//
// A transcript with a failed benchmark or package (a "--- FAIL" or
// "FAIL" line, which a build failure prints too) is refused: benchjson
// exits 1 and writes nothing, so a broken run cannot pass for a
// snapshot.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vmpower/internal/cliutil"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Package     string             `json:"package,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// parse reads `go test -bench` output and returns the benchmark lines in
// order. Non-benchmark lines (goos/goarch/pkg headers, PASS/ok trailers)
// are skipped, except that "pkg:" headers set the package attributed to
// the following benchmarks. A "FAIL" or "--- FAIL" line is an error.
func parse(r io.Reader) ([]Result, error) {
	var out []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL") {
			return nil, fmt.Errorf("the run failed: %q", line)
		}
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // a test named Benchmark*, or a truncated line
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Package: pkg, Iterations: iters}
		sawNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
				sawNs = true
			case "B/op":
				b := v
				res.BytesPerOp = &b
			case "allocs/op":
				a := v
				res.AllocsPerOp = &a
			default:
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[unit] = v
			}
		}
		if !sawNs {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

func main() {
	outPath := flag.String("out", "", "write JSON here instead of stdout")
	version := cliutil.VersionFlag(nil)
	flag.Parse()
	if *version {
		cliutil.PrintVersion(os.Stdout, "benchjson")
		return
	}

	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *outPath != "" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *outPath)
	}
}
