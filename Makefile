# Development targets for the vmpower reproduction.

GO ?= go
# Benchtime for the bench-json snapshot; 1x keeps `make verify` fast.
BENCHTIME ?= 1x

# ---- Benchmark trajectory + gate knobs -------------------------------
# The committed trajectory snapshot that bench-gate enforces against.
# Blessing an intentional perf regression = re-run `make bench-json`
# (overwrites this file), review the diff, and commit it with the
# justification. To start a new dated snapshot instead, pass
# BENCH_BASELINE=BENCH_<date>.json and update this default.
BENCH_BASELINE ?= BENCH_2026-08-08.json
# Relative ns/op tolerance for headline benches. 15% absorbs run-to-run
# jitter at -benchtime $(GATE_BENCHTIME) while still catching real
# regressions; BenchmarkServeLive wall-clock arms get a looser 60%
# inside benchgate (short-run p99s of a live daemon are noisy), and
# sub-microsecond benches are protected by benchgate's -min-ns-delta.
GATE_TOLERANCE ?= 0.15
# Longer benchtime for gate measurements than for the 1x snapshot pass:
# the gate compares numbers, so they need to be stable.
GATE_BENCHTIME ?= 3x
# Benches the gate re-measures (the headline set in cmd/benchgate).
GATE_BENCH_RE ?= EstimateTick|ServeCached

.PHONY: all build test race bench bench-json bench-gate powerbench-smoke verify experiments csv cover fmt fmt-check vet clean fuzz-short golden fleetd-smoke lifecycle-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race pass includes the chaos acceptance harnesses
# (internal/powerd and internal/fleetd), which hammer the daemons with
# concurrent scrapers while the meters fault.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot benchmark numbers (name, ns/op, allocs/op) into the committed
# trajectory JSON for cross-commit comparison. Includes the powerbench
# live-serve arms (BenchmarkServeLive/...) so the serving-path p99s are
# part of the trajectory. Overwrites $(BENCH_BASELINE): re-running this
# target IS the bless step for an intentional perf change.
bench-json:
	{ $(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... ; \
	  $(GO) run ./cmd/powerbench -gobench -clients 4 -duration 2s -interval 50ms -warmup 10 ; } \
	  | $(GO) run ./cmd/benchjson -out $(BENCH_BASELINE)

# Enforce the trajectory: re-measure the headline benches and fail on a
# >$(GATE_TOLERANCE) regression vs $(BENCH_BASELINE). The fresh snapshot
# is written to bench_fresh_gate.json (gitignored by clean) so a failing
# run can be inspected.
bench-gate:
	{ $(GO) test -run '^$$' -bench '$(GATE_BENCH_RE)' -benchmem -benchtime $(GATE_BENCHTIME) ./... ; \
	  $(GO) run ./cmd/powerbench -gobench -clients 4 -duration 2s -interval 50ms -warmup 10 ; } \
	  | $(GO) run ./cmd/benchjson -out bench_fresh_gate.json
	$(GO) run ./cmd/benchgate -baseline $(BENCH_BASELINE) -fresh bench_fresh_gate.json -tolerance $(GATE_TOLERANCE)

# Quick self-hosted load test of the powerd serving path: boots a
# calibrated daemon, hammers the cached endpoints, reports p50/p99/qps
# per endpoint plus how many ticks the load disturbed.
powerbench-smoke:
	$(GO) run ./cmd/powerbench -clients 4 -duration 2s -interval 50ms -warmup 10

# Full-size reproduction of every paper table/figure.
experiments:
	$(GO) run ./cmd/experiments -run all

# Full verification: vet + race across the tree, the enforcing perf gate
# against the committed trajectory, and every calibration band from
# DESIGN.md §5 (exits non-zero on drift).
verify: race bench-gate
	$(GO) run ./cmd/experiments -verify

# Regenerate the figure CSVs under results/.
csv:
	$(GO) run ./cmd/experiments -run all -csv results

cover:
	$(GO) test -cover ./...

# A short pass over every fuzz target — enough to catch regressions in the
# frame decoder, stream resync, model loader, the exact tier's closed form
# and its correction search's node cap, Monte-Carlo sampling stream,
# workload CSV parser and the history query endpoint without tying up CI. Minimizing an input is capped at 100
# execs: Go's default allows 60 s per input, and shrinking a model-sized
# input byte by byte would spend the whole FUZZTIME budget minimizing
# instead of fuzzing. A crasher is still reported, only less minimized.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzDecode$$' ./internal/meter/serial/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzReaderResync$$' ./internal/meter/serial/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzLoadModel$$' ./internal/core/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzClosedForm$$' ./internal/core/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzUnitSource$$' ./internal/shapley/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzHistoryQuery$$' ./internal/powerd/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzTraceFromCSV$$' ./internal/workload/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzGeneratorTicks$$' ./internal/workload/
	$(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -fuzz '^FuzzParseScenario$$' ./internal/cliutil/

# End-to-end fleetd smoke: calibrate a 3-host pool, serve on an ephemeral
# port, run 10 ticks, self-scrape /healthz and /metrics, exit non-zero on
# any missing surface.
fleetd-smoke:
	$(GO) run ./cmd/fleetd -smoke -calibration-ticks 20 -log-level warn

# End-to-end lifecycle smoke: a 2-host pool plays a scenario with every
# event class (power cycle, live migration, hot-plug, drain/undrain,
# autoscale, remove) over 30 ticks, then self-scrapes /api/v1/scenario,
# the lifecycle metrics and the event journal. The conservation audit
# runs on every tick; any violation fails the run.
lifecycle-smoke:
	$(GO) run ./cmd/fleetd -smoke -hosts 2 -calibration-ticks 20 -log-level warn \
	  -vms "x1:xlarge:acme:gcc,x2:xlarge:acme:gobmk,x3:xlarge:acme:sjeng,s1:small:edu-lab:namd,s2:small:edu-lab:namd,s3:small:edu-lab:namd,s4:small:edu-lab:namd,s5:small:edu-lab:namd,s6:small:edu-lab:namd,s7:small:edu-lab:namd,s8:small:edu-lab:namd,s9:small:edu-lab:namd,s10:small:edu-lab:namd" \
	  -scenario "s10@3:poweroff,s10@5:poweron,s1@8:migrate:1:2,n1@12:hotplug:1:small:edu-lab:namd:99,host:1@16:drain:1,host:1@22:undrain,grp:s@24:autoscale:2:5,n1@28:remove"

# Re-pin the golden experiment outputs after an intentional change to the
# simulation, calibration or solvers.
golden:
	$(GO) test ./internal/experiments/ -run TestGoldenExperimentOutputs -update

fmt:
	gofmt -w .

# Fail when any Go file is not gofmt-clean; CI's verify job runs it.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Golden pins under results/golden/ are tracked in git and survive clean;
# everything else under results/ is regenerable via `make csv`. The
# committed BENCH_*.json trajectory is tracked in git and must survive
# clean too — only the scratch gate snapshot is removed.
clean:
	rm -f results/*.csv test_output.txt bench_output.txt bench_fresh_gate.json
