package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: vmpower
cpu: Intel(R) Xeon(R)
BenchmarkExactSerial/n=12-8         	     266	   4484731 ns/op
BenchmarkExactParallel/n=16-8       	      10	 102440282 ns/op	 1057400 B/op	     301 allocs/op
BenchmarkMonteCarlo/n=24-8          	      37	  31983200 ns/op	  120.5 perms/s	  524288 B/op	    1024 allocs/op
PASS
ok  	vmpower	4.912s
pkg: vmpower/internal/shapley
BenchmarkWeights-8                  	 1000000	      1042 ns/op
BenchmarkNotABench no iterations here
PASS
`

func TestParse(t *testing.T) {
	results, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(results), results)
	}

	r := results[0]
	if r.Name != "BenchmarkExactSerial/n=12-8" || r.Package != "vmpower" {
		t.Fatalf("first result: %+v", r)
	}
	if r.Iterations != 266 || r.NsPerOp != 4484731 {
		t.Fatalf("first result numbers: %+v", r)
	}
	if r.BytesPerOp != nil || r.AllocsPerOp != nil {
		t.Fatal("no -benchmem columns on the first line")
	}

	r = results[1]
	if r.BytesPerOp == nil || *r.BytesPerOp != 1057400 {
		t.Fatalf("bytes/op: %+v", r.BytesPerOp)
	}
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 301 {
		t.Fatalf("allocs/op: %+v", r.AllocsPerOp)
	}

	r = results[2]
	if r.Extra["perms/s"] != 120.5 {
		t.Fatalf("extra metric: %+v", r.Extra)
	}

	r = results[3]
	if r.Package != "vmpower/internal/shapley" {
		t.Fatalf("package tracking across pkg: headers: %+v", r)
	}
	if r.Iterations != 1000000 || r.NsPerOp != 1042 {
		t.Fatalf("last result numbers: %+v", r)
	}
}

func TestParseEmpty(t *testing.T) {
	results, err := parse(strings.NewReader("PASS\nok \tvmpower\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("want no results, got %+v", results)
	}
}

// TestParseRefusesFailedRun: a transcript with a failed benchmark or a
// package that did not build is an error, not a partial snapshot.
func TestParseRefusesFailedRun(t *testing.T) {
	for name, transcript := range map[string]string{
		"failed benchmark and build": `goos: linux
pkg: vmpower
BenchmarkA-2   	       3	       100 ns/op
--- FAIL: BenchmarkB-2
    bench_test.go:12: boom
FAIL
exit status 1
FAIL	vmpower	0.012s
# vmpower/internal/fleet
internal/fleet/fleet.go:1:1: expected 'package', found 'EOF'
FAIL	vmpower/internal/fleet [build failed]
FAIL
`,
		"failed sub-benchmark": `pkg: vmpower
BenchmarkA-2   	       3	       100 ns/op
    --- FAIL: BenchmarkB/n=4-2
ok  	vmpower	0.012s
`,
		"build failed": `FAIL	vmpower/internal/fleet [build failed]
pkg: vmpower
BenchmarkA-2   	       3	       100 ns/op
`,
	} {
		if results, err := parse(strings.NewReader(transcript)); err == nil {
			t.Errorf("%s: parsed %d results, want an error", name, len(results))
		}
	}
}
