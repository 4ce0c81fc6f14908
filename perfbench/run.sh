#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload stream-sparse --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, and the fleet's checkpoints, journals and span files.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off XDG_CONFIG_HOME="$out/config"

# The build's output goes to stderr: the last line of stdout is the result.
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -workdir "$out/perfbench-run" "$@"
