#!/usr/bin/env bash
# Perf-trajectory record, two figures:
#
#  * BENCH_fig10.json — Figure 10 single-thread speedups over baseline, all
#    10 STAMP workloads, at a fixed scale.
#  * BENCH_fig11.json — the first multi-thread record: Figure 11(a)
#    (optimization configs) and 11(b) (alloc-log structures) at
#    FIG11_THREADS threads, merged into one JSON object.
#
# Compare the JSONs across commits to track the perf trajectory. Thread
# counts above the machine's core count measure oversubscribed scheduling,
# not parallel scaling, and are noisy — trust medians and signs, not digits.
#
# Usage: scripts/bench_json.sh [scale] [reps]
#   scale  defaults to 1.0 (approaches paper-size inputs; still seconds-fast)
#   reps   defaults to 5 (median-of-N per cell)
# Environment overrides for the fig11 runs:
#   FIG11_THREADS (default 4), FIG11_SCALE (default 3.0 — larger than fig10
#   so per-cell times rise out of the scheduler-jitter floor), FIG11_REPS
#   (default 5).
# Environment overrides for the txbatch run (BENCH_txbatch.json — request
# streams through the merge layer at batch sizes 1/4/16/64):
#   TXBATCH_THREADS (default 1: the capture curve is a single-thread
#   property), TXBATCH_SCALE (default 4.0 —
#   per-cell times of ~0.5 s, above the scheduler-jitter floor the gate
#   comparison would otherwise drown in), TXBATCH_REPS (default = reps).
# Environment overrides for the durable run (BENCH_durable.json — durable
# commit overhead and flushes-elided% vs the non-durable reference and the
# capture-disabled durable baseline):
#   DURABLE_THREADS (default 1: the elision ratio is a single-thread
#   property and the durable commit leg serializes anyway), DURABLE_SCALE
#   (default 1.0), DURABLE_REPS (default = reps).
# OUT_DIR (default repo root) redirects the written JSONs — used by
# scripts/bench_gate.py so a gate run never clobbers the committed records.
#
# Every record is written to a temp file IN the destination directory and
# renamed into place, so an interrupted run never leaves a truncated
# BENCH_*.json where a committed record used to be.
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${1:-1.0}"
reps="${2:-5}"
out_dir="${OUT_DIR:-.}"
fig11_threads="${FIG11_THREADS:-4}"
fig11_scale="${FIG11_SCALE:-3.0}"
fig11_reps="${FIG11_REPS:-5}"
txbatch_threads="${TXBATCH_THREADS:-1}"
txbatch_scale="${TXBATCH_SCALE:-4.0}"
txbatch_reps="${TXBATCH_REPS:-$reps}"
durable_threads="${DURABLE_THREADS:-1}"
durable_scale="${DURABLE_SCALE:-1.0}"
durable_reps="${DURABLE_REPS:-$reps}"
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$jobs" --target bench_fig10_single_thread \
  bench_fig11a_scal_configs bench_fig11b_structures bench_txbatch_stream \
  bench_durable

# Temp file in $out_dir (same filesystem -> the rename is atomic); the trap
# sweeps up whatever an aborted run left behind.
scratch() { mktemp "$out_dir/.bench.XXXXXX"; }
publish() { mv "$1" "$2" && echo "wrote $2"; }
trap 'rm -f "$out_dir"/.bench.*' EXIT

t=$(scratch)
./build/bench_fig10_single_thread \
  --scale "$scale" --reps "$reps" --json "$t"
publish "$t" "$out_dir/BENCH_fig10.json"

tmpa=$(scratch) && tmpb=$(scratch) && t=$(scratch)
./build/bench_fig11a_scal_configs --scale "$fig11_scale" \
  --reps "$fig11_reps" --threads "$fig11_threads" --json "$tmpa"
./build/bench_fig11b_structures --scale "$fig11_scale" \
  --reps "$fig11_reps" --threads "$fig11_threads" --json "$tmpb"
{
  echo '{'
  echo '"fig11a":'
  cat "$tmpa"
  echo ','
  echo '"fig11b":'
  cat "$tmpb"
  echo '}'
} > "$t"
rm -f "$tmpa" "$tmpb"
publish "$t" "$out_dir/BENCH_fig11.json"

t=$(scratch)
./build/bench_txbatch_stream --scale "$txbatch_scale" \
  --reps "$txbatch_reps" --threads "$txbatch_threads" --json "$t"
publish "$t" "$out_dir/BENCH_txbatch.json"

t=$(scratch)
./build/bench_durable --scale "$durable_scale" \
  --reps "$durable_reps" --threads "$durable_threads" --json "$t"
publish "$t" "$out_dir/BENCH_durable.json"
