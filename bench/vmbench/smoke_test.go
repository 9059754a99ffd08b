package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smokeRun runs a workload for 15 ticks and returns its output and
// parsed result line.
func smokeRun(t *testing.T, w workloadSpec, seed int64, trace int) (string, *jsonResult) {
	t.Helper()
	seconds := 15 * w.interval.Seconds()
	var out bytes.Buffer
	code, err := run([]string{
		"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-trace-file", filepath.Join(t.TempDir(), "trace.jsonl"),
	}, &out)
	if err != nil || code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %v\n%s", w.name, trace, code, err, out.String())
	}
	res, _, err := parseRun(out.Bytes())
	if err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	return out.String(), res
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit, both on its own line and in the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, bw := range b.Workloads {
		w, ok := workloadByName(bw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the harness", bw.Name)
		}
		if w.name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %s, harness %s", i, w.name, workloads[i].name)
		}
		for trace, metrics := range [][]benchmarkMetric{b.EndToEnd, b.PerLayer} {
			out, res := smokeRun(t, w, 1, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 15 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(metrics) {
				t.Errorf("%s trace=%d: %d metrics in the result, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(metrics))
			}
			for _, m := range metrics {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s: got %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name+" ") {
					t.Errorf("%s trace=%d: no report line for %s", w.name, trace, m.Name)
				}
			}
			if !strings.Contains(out, "alloc_digest ") {
				t.Errorf("%s trace=%d: no alloc_digest line", w.name, trace)
			}
		}
	}
}

// TestDigestRepeatsBySeed checks that a seed fixes the allocations: two
// runs with one seed print one digest, another seed another.
func TestDigestRepeatsBySeed(t *testing.T) {
	w, _ := workloadByName("serve4")
	digest := func(seed int64) string {
		out, _ := smokeRun(t, w, seed, 0)
		for _, line := range strings.Split(out, "\n") {
			if d, ok := strings.CutPrefix(line, "alloc_digest "); ok {
				return d
			}
		}
		t.Fatalf("no alloc_digest in\n%s", out)
		return ""
	}
	a, b, c := digest(3), digest(3), digest(4)
	if a != b {
		t.Errorf("seed 3 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 share digest %s", a)
	}
}
