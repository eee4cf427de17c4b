#!/usr/bin/env bash
# Builds hidbd and the e2ebench load generator from this checkout into
# .bench_build, then runs the benchmark with the given arguments.
# Run from the root of the repository, for example:
#
#   bash e2ebench/run.sh --workload read_heavy --seed 1 --seconds 15 --trace 0
#
# See e2ebench/README.md for the workloads, metrics and modes.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
# Keep the toolchain local and every build artefact, temporary file and
# toolchain setting inside the checkout.
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -o "$out/hidbd" ./cmd/hidbd
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -hidbd "$out/hidbd" -work "$out/work" "$@"
