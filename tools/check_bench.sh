#!/usr/bin/env bash
# Runs a bench binary and validates the schema of the BENCH_*.json it
# emits, so tier-1 ctest runs keep the perf/failure trajectory
# machine-readable (and loudly fail if a refactor breaks a bench).
#
# Usage: check_bench.sh --MODE <bench binary> [output.json]
#   --failure     failure_sweep    -> BENCH_failure.json
#   --sweep       run_all          -> BENCH_sweep.json
#   --chain       chain_sweep      -> BENCH_chain.json
#   --cluster     cluster_sweep    -> BENCH_cluster.json
#   --fuzz        fuzz_corpus      -> BENCH_fuzz.json
#   --dedup       dedup_sweep      -> BENCH_dedup.json
#   --precopy     precopy_sweep    -> BENCH_precopy.json
#   --checkpoint  checkpoint_sweep -> BENCH_checkpoint.json
# A missing or unknown mode flag exits 2 with the usage line.
set -euo pipefail

MODES='--failure|--sweep|--chain|--cluster|--fuzz|--dedup|--precopy|--checkpoint'

usage() {
  echo "usage: check_bench.sh $MODES <bench binary> [output.json]" >&2
  exit 2
}

case "${1:-}" in
  --failure|--sweep|--chain|--cluster|--fuzz|--dedup|--precopy|--checkpoint)
    MODE=${1#--}
    shift
    ;;
  *) usage ;;
esac

BIN=${1:-}
[ -n "$BIN" ] || usage

status=0
if [ "$MODE" = "sweep" ]; then
  OUT=${2:-BENCH_sweep.json}
  # Simulates the 77-trial grid, folds it into the metrics registry and
  # emits the summary.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version seed trial_count workloads metrics trials \
        counters histograms downtime_seconds rimas_transfer_seconds \
        faults.iou_pulls bytes.total messages.total \
        rs_calibrated rs_zero_scan_per_mb_us"

  if ! grep -q '"bench": "sweep"' "$OUT"; then
    echo "check_bench: $OUT is not a sweep summary" >&2
    status=1
  fi
  if grep -q '"trial_count": 0' "$OUT"; then
    echo "check_bench: sweep summary carries no trials" >&2
    status=1
  fi
elif [ "$MODE" = "chain" ]; then
  OUT=${2:-BENCH_chain.json}
  # The A -> B -> C grid (7 workloads x 11 strategy/prefetch cells) plus the
  # B-crash-after-collapse trials. The binary exits non-zero if any
  # post-collapse request touched the evacuated intermediary, any trial hung
  # or finished corrupted, or the crash trial lost the process.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version trial_count collapses \
        b_requests_after_collapse_total b_forwards_after_collapse_total \
        b_objects_after_collapse_total integrity_failures hung \
        crash_trial_count b_crash_survived trials crash_trials"

  # Belt and braces: re-assert the evacuation + survival invariants.
  if ! grep -q '"b_requests_after_collapse_total": 0' "$OUT"; then
    echo "check_bench: post-collapse requests hit the intermediary in $OUT" >&2
    status=1
  fi
  if ! grep -q '"b_forwards_after_collapse_total": 0' "$OUT"; then
    echo "check_bench: post-collapse requests were forwarded through the intermediary in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: chain sweep reports corrupted completions in $OUT" >&2
    status=1
  fi
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: chain sweep reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"b_crash_survived": true' "$OUT"; then
    echo "check_bench: process did not survive the intermediary crash in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "cluster" ]; then
  OUT=${2:-BENCH_cluster.json}
  # The 480-host churn trial at 1/2/8 shards (byte-compared, best-of-reps
  # walls) plus the 16-point balancer policy grid. The binary exits non-zero
  # if any trial hung, any census failed to balance, the shard counts
  # disagreed on results, or 8 shards failed to beat 1.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version seed reps hosts processes_arrived trial_count \
        hung integrity_failures identical_across_shards \
        wall_seconds_shards_1 wall_seconds_shards_2 wall_seconds_shards_8 \
        speedup_shards_2 speedup_shards_8 big_trial policy_sweep \
        steady_migrations_per_sec queueing_p99_us downtime_p99_us"

  # Belt and braces: re-assert the headline invariants from the JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: cluster sweep reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: cluster sweep reports census failures in $OUT" >&2
    status=1
  fi
  if ! grep -q '"identical_across_shards": true' "$OUT"; then
    echo "check_bench: shard counts disagree on trial results in $OUT" >&2
    status=1
  fi
  SPEEDUP=$(grep -o '"speedup_shards_8": [0-9.eE+-]*' "$OUT" | head -n1 | awk '{print $2}')
  if [ -z "$SPEEDUP" ] || ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s > 1.0) }'; then
    echo "check_bench: 8-shard speedup '$SPEEDUP' is not > 1 in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "fuzz" ]; then
  OUT=${2:-BENCH_fuzz.json}
  # The seeded adversarial corpus (ACCENT_FUZZ_SEEDS scenarios, default 64):
  # random heterogeneous topology x workload x fault plan x strategy x
  # optional re-migration, checked against the standing oracles. The binary
  # exits non-zero on any oracle failure; every failing scenario prints its
  # seed and a migrate_sim --replay-seed line.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version first_seed scenario_count completed aborted \
        terminal_faults hung integrity_failures backer_imbalances \
        shard_divergences cluster_census_failures cluster_hangs \
        diskless_backing_anchors payload_leak remigrations crash_scenarios \
        cached_scenarios dedup_failures checkpoint_scenarios \
        restores_completed checkpoint_failures failures scenarios"

  # Belt and braces: re-assert the headline oracles from the emitted JSON.
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports corrupted completions in $OUT" >&2
    status=1
  fi
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports hung scenarios in $OUT" >&2
    status=1
  fi
  if ! grep -q '"shard_divergences": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports shard-count divergence in $OUT" >&2
    status=1
  fi
  if ! grep -q '"dedup_failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports dedup identity violations in $OUT" >&2
    status=1
  fi
  if ! grep -q '"checkpoint_failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports checkpoint-plane violations in $OUT" >&2
    status=1
  fi
  if ! grep -q '"failures": 0' "$OUT"; then
    echo "check_bench: fuzz corpus reports oracle failures in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "dedup" ]; then
  OUT=${2:-BENCH_dedup.json}
  # The same Table 4-1 program migrated N times across the calibrated fleet,
  # content cache on vs off. The binary exits non-zero if the origin served
  # more than half of the faulted pages as payload, if the cached run failed
  # to move strictly fewer bytes than the baseline, if the cache-off run
  # touched the dedup plane at all, or on any integrity failure.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version workload seed repeats hosts \
        origin_offload_ratio wire_bytes_cached wire_bytes_baseline \
        wire_bytes_saved integrity_failures hung cached baseline metrics \
        faulted_pages origin_payload_pages offloaded_pages \
        cache_hits cache_misses cache_insertions cache_evictions rounds"

  # Belt and braces: re-assert the headline gates from the emitted JSON.
  # Several gate keys recur inside the nested cached/baseline result objects
  # (where e.g. the baseline's offload ratio is legitimately 0), so every
  # grep anchors on the two-space indent of a top-level key.
  if ! grep -q '^  "integrity_failures": 0' "$OUT"; then
    echo "check_bench: dedup sweep reports integrity failures in $OUT" >&2
    status=1
  fi
  if ! grep -q '^  "hung": 0' "$OUT"; then
    echo "check_bench: dedup sweep reports hung rounds in $OUT" >&2
    status=1
  fi
  RATIO=$(grep -o '^  "origin_offload_ratio": [0-9.eE+-]*' "$OUT" | head -n1 | awk '{print $2}')
  if [ -z "$RATIO" ] || ! awk -v r="$RATIO" 'BEGIN { exit !(r >= 0.5) }'; then
    echo "check_bench: origin offload '$RATIO' is below 0.5 in $OUT" >&2
    status=1
  fi
  CACHED=$(grep -o '^  "wire_bytes_cached": [0-9]*' "$OUT" | head -n1 | awk '{print $2}')
  BASE=$(grep -o '^  "wire_bytes_baseline": [0-9]*' "$OUT" | head -n1 | awk '{print $2}')
  if [ -z "$CACHED" ] || [ -z "$BASE" ] || ! awk -v c="$CACHED" -v b="$BASE" 'BEGIN { exit !(c < b) }'; then
    echo "check_bench: cached wire bytes '$CACHED' not below baseline '$BASE' in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "precopy" ]; then
  OUT=${2:-BENCH_precopy.json}
  # The live pre-copy grid: 7 workloads x (3 paper strategies + round caps
  # {1,4,8} x downtime SLOs {off, 1 s, 5 s}). The binary exits non-zero if
  # any trial hung or failed to complete, if pre-copy did not beat pure-copy
  # on downtime for the compute-bound workloads, if the page-byte ordering
  # precopy >= pure-copy >= IOU broke, or if the SLO predictor never fired.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version seed trial_count completed hung \
        downtime_wins downtime_win_ok bytes_ordering_ok slo_ok pareto cells \
        downtime_s page_bytes wws_pages predicted_downtime_s slo_met rounds"

  # Belt and braces: re-assert the headline gates from the emitted JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: pre-copy sweep reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"downtime_win_ok": true' "$OUT"; then
    echo "check_bench: pre-copy did not beat pure-copy on downtime for the compute-bound workloads in $OUT" >&2
    status=1
  fi
  if ! grep -q '"bytes_ordering_ok": true' "$OUT"; then
    echo "check_bench: page-byte ordering precopy >= pure-copy >= IOU broke in $OUT" >&2
    status=1
  fi
  if ! grep -q '"slo_ok": true' "$OUT"; then
    echo "check_bench: the downtime-SLO predictor never fired on a compute-bound workload in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "checkpoint" ]; then
  OUT=${2:-BENCH_checkpoint.json}
  # The failure matrix re-run with the durable checkpoint store on. The
  # binary exits non-zero if any trial hung, any completion was corrupted,
  # or any pure-IOU source-crash cell failed to restore and finish.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version trial_count completed aborted terminal_faults \
        terminal_breakdown restored hung integrity_failures \
        unsurvivable_pure_iou_source_crash trials"

  # Belt and braces: re-assert the survivability gates from the JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: checkpoint matrix reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: checkpoint matrix reports corrupted completions in $OUT" >&2
    status=1
  fi
  if ! grep -q '"unsurvivable_pure_iou_source_crash": 0' "$OUT"; then
    echo "check_bench: a pure-IOU source-crash cell stayed terminal in $OUT" >&2
    status=1
  fi
elif [ "$MODE" = "failure" ]; then
  OUT=${2:-BENCH_failure.json}
  # The full matrix (7 workloads x 4 strategies x 4 scenarios). The binary
  # itself exits non-zero if any trial hung or completed with corrupted
  # contents, so set -e makes those hard failures here.
  "$BIN" --out "$OUT"
  KEYS="bench schema_version trial_count completed aborted terminal_faults \
        terminal_breakdown restored hung integrity_failures trials"

  # Belt and braces: re-assert the invariants from the emitted JSON.
  if ! grep -q '"hung": 0' "$OUT"; then
    echo "check_bench: failure matrix reports hung trials in $OUT" >&2
    status=1
  fi
  if ! grep -q '"integrity_failures": 0' "$OUT"; then
    echo "check_bench: failure matrix reports corrupted completions in $OUT" >&2
    status=1
  fi
fi

for key in $KEYS; do
  if ! grep -q "\"$key\"" "$OUT"; then
    echo "check_bench: missing key \"$key\" in $OUT" >&2
    status=1
  fi
done

# Rates must be positive numbers, not nan/inf.
if grep -qiE "nan|inf" "$OUT"; then
  echo "check_bench: non-finite number in $OUT" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_bench: $OUT schema ok"
fi
exit "$status"
