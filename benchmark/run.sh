#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json's command is `bash benchmark/run.sh`; a driver appends
# --workload <name> --seed <n> --seconds <s> --trace <0|1> and reads the last
# line of standard output. Everything written (the Go build cache, the go
# command's temporary and telemetry files, the binary, result and span files)
# stays inside this directory, under .bench_build/ and out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/benchmark" . >&2
exec "$build/benchmark" "$@"
