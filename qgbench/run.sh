#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash qgbench/run.sh --workload randu24 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, stores,
# reports, traces) stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

go build -C qgbench -o "${build}/bin/qgbench" .
exec "${build}/bin/qgbench" "$@"
