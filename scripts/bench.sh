#!/usr/bin/env bash
# scripts/bench.sh — run the scheduler microbenchmarks and record the
# result as one labelled run in BENCH_sim.json (the tier-1 perf
# trajectory; see cmd/benchjson).
#
# Usage:
#   scripts/bench.sh [label]        # label defaults to the git short rev
#   BENCHTIME=3s scripts/bench.sh   # longer per-bench runtime
#   FULL=1 scripts/bench.sh         # also run the paper-experiment
#                                   # benches at the repo root (slow)
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-$(git rev-parse --short HEAD 2>/dev/null || echo dev)}"
benchtime="${BENCHTIME:-1s}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

sim_benches='BenchmarkEventThroughput$|BenchmarkProcSwitch$|BenchmarkResourceContention$|BenchmarkYieldStorm$|BenchmarkTimerCancelChurn$|BenchmarkMailboxPingPong$|BenchmarkSpawnChurn$|BenchmarkShardedThroughput/'
go test -run '^$' -bench "$sim_benches" -benchmem -benchtime "$benchtime" \
    ./internal/sim/ | tee "$raw"

# One Active Message round trip (post, ack, handler process, reply):
# the per-request host cost under every xFS, GLUnix and collective call.
go test -run '^$' -bench 'BenchmarkCallRoundTrip$' -benchmem -benchtime "$benchtime" \
    ./internal/proto/am/ | tee -a "$raw"

# Degraded-mode file-system bandwidth (virtual-time MB/s, healthy vs
# post-crash reconstruct reads) — the fault studies' headline figure —
# and the pipelined-vs-serial sequential scan (serial/pipelined MB/s
# plus the speedup the batched data path buys).
go test -run '^$' -bench 'BenchmarkXFSReadDegraded$|BenchmarkXFSSeqScan$' -benchtime "$benchtime" \
    ./internal/xfs/ | tee -a "$raw"

# Control-plane snapshot streaming: the per-poll cost an operator
# dashboard imposes on the serve loop's drive goroutine (status +
# metrics snapshot + span fetch + JSON export against a warm stack).
go test -run '^$' -bench 'BenchmarkSnapshotStream$' -benchmem -benchtime "$benchtime" \
    ./internal/controlplane/ | tee -a "$raw"

# Fabric hot path (must stay at 0 allocs/op), per-hop topology routing
# (torus dimension-order, 0 allocs/op), and the collective scale
# headliners: the 1,024-rank software-tree barrier, its in-network
# counterpart on a fat-tree, and a 128-rank all-to-all, with virtual
# µs/op alongside the wall-clock figures.
go test -run '^$' -bench 'BenchmarkFabricDelivery$|BenchmarkTorusRoute$' -benchmem -benchtime "$benchtime" \
    ./internal/netsim/ | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkBarrier1024$|BenchmarkFatTreeBarrier1024$|BenchmarkAllToAll128$' -benchtime 2x \
    ./internal/proto/collective/ | tee -a "$raw"

# Wide-area federation: a full lease grant/recall/write-back round trip
# over the WAN, and the spill placer's decision cost against a gossiped
# peer census (virtual-time figures; see docs/FEDERATION.md).
go test -run '^$' -bench 'BenchmarkWANLeaseRecall$|BenchmarkSpillPlacement$' -benchtime "$benchtime" \
    ./internal/federation/ | tee -a "$raw"

if [ "${FULL:-0}" = "1" ]; then
    # One iteration of each experiment bench: regenerates every table
    # and figure once and reports the headline paper metrics.
    go test -run '^$' -bench . -benchtime 1x . | tee -a "$raw"
fi

go run ./cmd/benchjson -label "$label" -out BENCH_sim.json < "$raw"
