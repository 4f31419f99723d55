#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given flags. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload sim-baryon --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh --seed 1          # all workloads, one child process each
#
# Every file the Go toolchain and the benchmark write (build cache, binary,
# temp dirs) goes under $CARGO_TARGET_DIR, default .bench_build, so nothing
# outside the checkout is touched. A checkout without the simulator's
# sources fails to build and exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/bench" && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
