#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files, the
# toolchain's local telemetry counters) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, inside the checkout. No module is
# downloaded: the benchmark needs only the standard library and the
# repository's own packages.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod" "$out/config"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
