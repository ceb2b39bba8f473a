#!/usr/bin/env bash
# Builds the benchmark and the matchd daemon from this checkout's sources,
# then runs the benchmark from the checkout root with the given arguments:
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build output, the Go build cache and run records stay under .bench_build
# in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(
	cd "$root/benchmark"
	go build -o "$out/bin/benchmark" .
	go build -o "$out/bin/matchd" matchsim/cmd/matchd
) >&2
cd "$root"
exec "$out/bin/benchmark" -matchd "$out/bin/matchd" -out "$out" "$@"
