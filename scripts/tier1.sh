#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every change, each
# check run exactly once (CI runs this script and nothing else).
# Usage: scripts/tier1.sh  (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

# Fixed property-test budget so the gate's cost and coverage are
# reproducible (the vendored proptest reads this; default is 256).
export PROPTEST_CASES="${PROPTEST_CASES:-256}"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test --workspace (PROPTEST_CASES=$PROPTEST_CASES)"
# Every unit, integration and property suite of every crate, once —
# among them the simulator's determinism, faults, fault_props, obs,
# metrics_props, conformance, txn_workload_props, txn_determinism,
# causal, causal_props, reconfig_props, placement_props,
# placement_determinism and routed_arrivals suites.
cargo test -q --workspace

echo "==> determinism suites under the heap event-queue oracle"
# The calendar queue is the default; forcing the binary-heap oracle through
# the same pinned-digest and shard-digest suites proves the two
# implementations are observationally identical (same pop order, same
# metrics bits) — any divergence fails the pinned digests immediately.
QC_EVENT_QUEUE=heap cargo test -q -p qc-sim --test determinism \
  --test shard_determinism --test golden

echo "==> nested-transaction smoke (exp_txn: digests, conformance, Theorem 11)"
# The binary asserts 1/2/4-thread digest identity, per-item Theorem 10
# conformance, and commit-order serializability of the committed
# projection; --smoke keeps the scale and sweep sections cheap.
cargo run --release -p qc-bench --bin exp_txn -- --smoke > /dev/null
test -s results/BENCH_txn.json

echo "==> critical-path smoke (exp_critpath --smoke) + qc-trace queries"
# The binary asserts recording invisibility, thread/queue invariance of
# the causal digest, and exact reconciliation at scale; qc-trace then
# re-parses both the golden causal JSONL and the freshly exported
# slowest-transaction JSONL, re-verifying every span tree offline, and
# runs each query mode over them.
cargo run --release -p qc-bench --bin exp_critpath -- --smoke > /dev/null
test -s results/BENCH_critpath.json && test -s results/critpath_slowest.jsonl
GOLDEN=crates/sim/tests/golden/txn_banking_causal_seed17.jsonl
cargo run --release -p qc-bench --bin qc-trace -- "$GOLDEN" check
cargo run --release -p qc-bench --bin qc-trace -- "$GOLDEN" top 3 > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  results/critpath_slowest.jsonl check > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  results/critpath_slowest.jsonl profile > /dev/null
cargo run --release -p qc-bench --bin qc-trace -- \
  results/critpath_slowest.jsonl aborts > /dev/null

echo "==> elastic rebalancing smoke (exp_rebalance --smoke)"
# The binary asserts 1/2/4-thread x calendar/heap digest identity of the
# elastic run, per-item conformance including migrated items, and that
# the elastic arm at least halves the collapsed arm's load ratio; --smoke
# keeps the item count and sweep cheap.
cargo run --release -p qc-bench --bin exp_rebalance -- --smoke > /dev/null
test -s results/BENCH_rebalance.json

echo "==> shard scaling smoke (exp_shard_scaling: determinism + per-item conformance)"
cargo run --release -p qc-bench --bin exp_shard_scaling -- \
  --secs 2 --threads 2 > /dev/null
test -s results/BENCH_shard.json

echo "==> reconfiguration + trace conformance smoke (exp_faults --trace-dir)"
# The binary asserts every dynamic ROWA cell reconfigured and beat its
# static twin, and every dynamic trace replays through the
# generation-aware conformance checker; the traces land in
# results/traces (CI uploads them).
cargo run --release -p qc-bench --bin exp_faults -- \
  --secs 2 --trace-dir results/traces > /dev/null
test -s results/traces/faults_rowa_a1_dynamic.json

echo "==> perf-regression gate (exp_throughput -> bench_summary --check)"
# Regenerate the hot-path throughput snapshot, fold it into a scratch
# copy of the trajectory under a synthetic commit, and fail if the
# geometric mean of ops/wall-s regressed more than 15% against the most
# recent recorded commit. The scratch copy keeps the gate from editing
# the committed trajectory history.
cargo run --release -p qc-bench --bin exp_throughput -- --secs 5 > /dev/null
GATE_DIR="$(mktemp -d)"
cp results/BENCH_*.json "$GATE_DIR"/
cargo run --release -p qc-bench --bin bench_summary -- \
  --results "$GATE_DIR" --commit worktree > /dev/null
cargo run --release -p qc-bench --bin bench_summary -- \
  --results "$GATE_DIR" --check
rm -rf "$GATE_DIR"

echo "==> observability smoke (exp_obs --smoke)"
# Asserts the snapshot exporter fires on every simulated boundary and the
# 1/2/4-thread sharded histogram merge is bit-identical. It reads the
# thread-scaling wall time exp_throughput just wrote as its baseline, so
# it runs after the perf gate.
cargo run --release -p qc-bench --bin exp_obs -- \
  --smoke --obs-dir results/obs > /dev/null
test -s results/BENCH_obs.json && test -d results/obs

echo "==> cargo clippy -D warnings"
# The workspace covers every crate under crates/ (qc-obs included).
cargo clippy --workspace --all-targets -- -D warnings

echo "tier1: OK"
