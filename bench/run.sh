#!/usr/bin/env bash
# The one command of the benchmark.
#
#   bench/run.sh                                   the whole suite: every workload -runs times,
#                                                  interleaved, then the traced pass → bench/out/result.json
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                  one run, as the benchmark driver makes it
#
# It builds rebroadcastd, relayd and the harness from this checkout's
# source into bench/out/bin (never reusing a binary older than the source)
# and keeps every file it writes, Go's build cache included, under
# bench/out.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/relayd" ] || [ ! -d "$root/cmd/rebroadcastd" ]; then
    echo "bench/run.sh: $root holds no go.mod with cmd/relayd and cmd/rebroadcastd: nothing to measure" >&2
    exit 2
fi
out=$root/bench/out
bin=$out/bin
mkdir -p "$bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config # go's work directory and config
export GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default mode the go command starts, about once a
# day per config directory, a detached copy of itself that outlives the
# command that started it; a benchmark run may leave no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

stamp=$bin/.built
start=$(date +%s%N)
if [ ! -e "$stamp" ] || [ -n "$(find "$root/go.mod" "$root/cmd" "$root/internal" "$root/bench/esbench" "$root/bench/quant" \
        -newer "$stamp" \( -name '*.go' -o -name go.mod \) -print -quit)" ]; then
    rm -f "$stamp" "$bin"/rebroadcastd "$bin"/relayd "$bin"/esbench
    # The build runs in a process group of its own, so that a signal to
    # this script takes the compilers down with it.
    set -m
    (cd "$root" && exec go build -o "$bin/" ./cmd/rebroadcastd ./cmd/relayd ./bench/esbench) >&2 &
    build=$!
    set +m
    trap 'kill -KILL -- -$build 2>/dev/null || true; wait $build 2>/dev/null || true; exit 143' INT TERM HUP
    wait $build
    trap - INT TERM HUP
    touch "$stamp"
fi
ms=$(( ($(date +%s%N) - start) / 1000000 ))
build_s=$((ms / 1000)).$(printf %03d $((ms % 1000)))

cd "$root"
if [ $# -eq 0 ]; then
    set -- -suite
fi
exec "$bin/esbench" -bin "$bin" -out "$out" -build-s "$build_s" "$@"
