#!/usr/bin/env bash
# Builds finservebench from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash finservebench/run.sh --workload price_lone --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

(cd "$root/finservebench" && go build -o "$out/finservebench" .) >&2
exec "$out/finservebench" --out "$out" "$@"
