#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments, e.g. from the repository root:
#
#   bash lasmqbench/run.sh --workload engine-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the checkout, in
# $CARGO_TARGET_DIR when that is set and in .bench_build otherwise. The build
# needs no network: the module has no dependencies besides the repository's
# own module next to it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/spans"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOFLAGS= GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local CGO_ENABLED=0
go build -C lasmqbench -o "$out/lasmqbench" .
exec "$out/lasmqbench" --span-dir "$out/spans" "$@"
