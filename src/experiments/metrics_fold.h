// Folds trial results into a MetricsRegistry, and writes the paper grid's
// report row.
//
// The bridge between the per-trial measurement records and the typed
// metrics that bench binaries embed in BENCH_*.json: run the sweep, fold
// every trial, serialise the registry. Aggregation is associative —
// folding trials one at a time equals merging per-trial registries — which
// is what lets parallel sweeps aggregate after the barrier.
#ifndef SRC_EXPERIMENTS_METRICS_FOLD_H_
#define SRC_EXPERIMENTS_METRICS_FOLD_H_

#include "src/experiments/dedup.h"
#include "src/experiments/scenario.h"
#include "src/metrics/registry.h"

namespace accent {

// Adds one trial's measurements to `registry`:
//   counters   trials, messages.total, bytes.{total,control,core,bulk,fault},
//              bytes.real_transferred, faults.{fillzero,disk,cow,imaginary},
//              faults.iou_pulls (pages returned by backers),
//              faults.prefetched, faults.prefetch_hits
//   histograms downtime_seconds, rimas_transfer_seconds, netmsg_busy_seconds
void FoldTrialMetrics(const MechTrial& trial, MetricsRegistry* registry);

// Adds one dedup-experiment run's content-cache measurements to `registry`:
//   counters   cache.hits, cache.misses, cache.insertions, cache.evictions,
//              cache.offloaded_pages, cache.origin_payload_pages,
//              cache.wire_bytes
// A cache-off run folds all-zero cache counters (plus its wire bytes), so a
// registry holding both halves of the bench exposes the dedup delta.
void FoldDedupMetrics(const DedupResult& result, MetricsRegistry* registry);

// The paper grid's row, in BENCH_sweep.json and in BENCH_beyond.json's
// staged studies: MechRowToJson plus the 27 keys the paper's tables and
// figures are computed from (the substitution switch, spec composition,
// excision/transfer/insert timings, byte traffic, remote execution,
// destination fault and prefetch counts), without the bulky traffic series.
// tools/render_results consumes this shape.
Json PaperRowToJson(const MechTrial& trial);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_METRICS_FOLD_H_
