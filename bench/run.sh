#!/usr/bin/env bash
# Builds the benchmark (bench/vmbench) from this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload mask16 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go's build cache, temporary files and
# configuration) goes under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/vmbench" ./vmbench) >&2
exec "$out/vmbench" "$@"
