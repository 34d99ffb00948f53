#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout. Everything it writes — the Go build cache,
# the toolchain's own state, the binary, generated traces and span files —
# stays inside that checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"
(
	cd "$bench"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
	go build -o "$build/bbsched-bench" .
)
exec "$build/bbsched-bench" -out "$bench/out" "$@"
