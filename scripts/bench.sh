#!/bin/sh
# Run the relay's simulator-inclusive perf benchmarks and record their
# rows as JSON in an untracked file (bench-trajectory.json unless
# BENCH_OUT names another; bench/ is the repo's gated benchmark, on real
# sockets — see bench/README.md): the fan-out table (ns/pkt plus the relay's own hot-path
# histogram percentiles, measured with the ops endpoint live and being
# scraped — the numbers price the relay as deployed), the join-storm
# admission table (subscribes/sec, batched vs per-packet verification,
# shared-key vs per-subscriber-identity), and the DVR catch-up table
# (backlog replay throughput and the catch-up-lag histogram for a
# time-shifted join).
#
# Usage:
#   scripts/bench.sh                 # quick pass (-benchtime 1x), used by CI
#   BENCHTIME=3x scripts/bench.sh    # more iterations for steadier numbers
#   BENCH_OUT=perf.json scripts/bench.sh
set -eu
cd "$(dirname "$0")/.."
: "${BENCHTIME:=1x}"
: "${BENCH_OUT:=bench-trajectory.json}"
BENCH_JSON="$BENCH_OUT" go test -run '^$' -bench '^(BenchmarkRelayFanout|BenchmarkJoinStorm|BenchmarkDVRCatchup)$' \
	-benchtime "$BENCHTIME" .
echo "wrote $BENCH_OUT:"
cat "$BENCH_OUT"
