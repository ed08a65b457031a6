#!/bin/sh
# run.sh builds the benchmark and adasimd from source, then runs the
# benchmark with the given arguments from the repository root:
#
#   sh bench/run.sh -workload warm-hits -seed 1 -seconds 20 -trace 0
#
# Everything the builds and runs leave behind (binaries, the Go build
# cache, daemon state, traces) stays under .bench_build/ at the root; the
# Go toolchain is kept offline and away from the user's home directory.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bin/bench" .)
(cd "$root" && go build -o "$out/bin/adasimd" ./cmd/adasimd)

cd "$root"
exec "$out/bin/bench" "$@"
