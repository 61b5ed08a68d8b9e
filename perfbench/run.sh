#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sign-live --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build writes — the Go
# build cache, temporary files and the binary — stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout,
# and the build never touches the network.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/xdg"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
# The traced run writes its spans under $PERFBENCH_BUILD/spans.
export PERFBENCH_BUILD="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
