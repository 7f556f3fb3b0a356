#!/usr/bin/env bash
# Builds and runs the benchmark driver. Run it from the repository root:
#
#   bash bench/run.sh --workload stream-ingest --seed 1 --seconds 10 --trace 0
#
# Everything a run builds or writes stays in the build directory,
# $CARGO_TARGET_DIR when set (relative to the root or absolute), else
# .bench_build: the driver binary, the programs under test, the Go build
# cache, data directories and span files. The arguments go to benchrun
# (bench/benchrun/main.go).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp"

# The go command keeps its settings and usage counters under the user
# configuration directory; point that into the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd bench && go build -o "$build/bin/benchrun" ./benchrun)
exec "$build/bin/benchrun" -root "$root" -build "$build" "$@"
