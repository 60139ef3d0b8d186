#!/usr/bin/env bash
# Builds the undefc benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload regen --seed 1 --seconds 18 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, traced-run outputs) stays
# under .bench_build in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$(pwd)/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"

# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters) inside the build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -C perfbench -o "$out/undefc-perfbench" . >&2
exec "$out/undefc-perfbench" -out "$out" "$@"
