#!/usr/bin/env bash
# Builds sgxbench and the sgxnet commands it drives from the checkout in
# the working directory, then runs it with the given arguments, e.g.
#
#   bash sgxbench/run.sh --workload ratls-admit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/sgxnet-tables/testdata/all.golden" || ! -f "$root/sgxbench/go.mod" ]]; then
	echo "sgxbench: run from the root of an sgxnet checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/bin/" ./cmd/sgxnet-tables ./cmd/sgxnet-trace
go -C sgxbench build -o "$build/bin/sgxbench" .
exec "$build/bin/sgxbench" "$@"
