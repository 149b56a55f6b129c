#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark program from
# source and runs it. Everything the Go toolchain writes (build cache,
# telemetry, binaries) is redirected under .bench_build/ in the checkout, and
# nothing may reach the network.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/tdbenchmark" .
exec "$build/tdbenchmark" -root "$root" "$@"
