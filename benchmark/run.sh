#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the build and the run write stays inside the
# checkout, under .bench_build: the Go build cache, the toolchain's
# temporary and telemetry files, the binary and the run's scratch files.
set -euo pipefail
build="$PWD/.bench_build"
if [ ! -f go.mod ] || [ ! -d vendor ]; then
	echo "benchmark/run.sh: no go.mod or vendor/ in $PWD: the program's source is not here" >&2
	exit 1
fi
# Telemetry off before the first go command: in its default "local" mode
# the go command starts a detached counter-upload child that outlives it.
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOWORK=off \
	go build -o "$build/apcm-benchmark" ./benchmark
exec "$build/apcm-benchmark" "$@"
