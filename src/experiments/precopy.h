// The live pre-copy sweep: strategy family four measured against the
// paper's three.
//
// Each cell migrates one representative workload under either a paper
// strategy (pure-copy, pure-IOU, resident-set) or pre-copy at a point in
// the round-cap x downtime-SLO grid. Workloads with enough compute runway
// migrate *live*: the process starts executing at the source and the
// migration fires mid-run, so pre-copy's rounds race a real writer and
// re-ship genuinely dirtied pages. Short workloads migrate at their staged
// migration point (the paper's model) — pre-copy then degenerates to one
// snapshot round, which is itself part of the story.
//
// The sweep asserts the trade the paper's §5 predicts and Theimer's V
// system measured: pre-copy beats pure-copy on downtime (freeze-to-resume)
// for the compute-bound workloads, and loses on page bytes — every page
// dirtied during a round crosses the wire again. BENCH_precopy.json carries
// the full grid plus a per-workload Pareto summary (downtime vs bytes), and
// declares the headline gates in its `gates` array (src/metrics/gates.h).
#ifndef SRC_EXPERIMENTS_PRECOPY_H_
#define SRC_EXPERIMENTS_PRECOPY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/types.h"
#include "src/migration/strategy.h"

namespace accent {

// One point of the grid. For the three paper strategies the pre-copy knobs
// are ignored; `live` is a property of the workload (enough compute runway
// to migrate mid-execution) and is identical across a workload's cells so
// every comparison is at the same migration point.
struct PreCopySweepCell {
  std::string workload;
  TransferStrategy strategy = TransferStrategy::kPureCopy;
  int max_rounds = 0;               // pre-copy cells only
  SimDuration target_downtime{0};   // pre-copy cells only; 0 = SLO off
  bool live = false;
  SimDuration migrate_at{0};        // live cells: source execution before Migrate
};

struct PreCopySweepCellResult {
  PreCopySweepCell cell;
  bool completed = false;  // migration done, remote ran to completion
  bool hung = false;       // watchdog fired (always a bug)
  int rounds = 0;          // pre-copy rounds (0 for paper strategies)
  SimDuration downtime{0};            // process runnable nowhere
  SimDuration total{0};               // request -> remote completion
  ByteCount page_bytes = 0;           // bulk + fault wire traffic
  ByteCount wire_bytes = 0;           // all wire traffic
  double wws_pages = 0.0;             // final writable-working-set estimate
  SimDuration predicted_downtime{0};  // last SLO-loop prediction (0 = SLO off)
  bool slo_met = false;
};

struct PreCopySweepSummary {
  std::vector<PreCopySweepCellResult> cells;  // fixed grid order
  std::uint64_t completed = 0;
  std::uint64_t hung = 0;

  // Headline gates (see RunPreCopySweep).
  int downtime_wins = 0;          // compute-bound workloads beating pure-copy
  bool downtime_win_ok = false;   // >= 2 such workloads
  bool bytes_ordering_ok = false; // per workload: precopy >= pure-copy >= IOU
  bool slo_ok = false;            // SLO met on every compute-bound workload
};

// The fixed grid: 7 workloads x (3 paper strategies + round caps {1,4,8} x
// SLOs {off, 1 s, 5 s}) = 84 cells, in deterministic order.
std::vector<PreCopySweepCell> PreCopySweepCells();

// One cell on a private testbed. Deterministic for (cell, seed).
PreCopySweepCellResult RunPreCopyCell(const PreCopySweepCell& cell, std::uint64_t seed);

// The full grid, fanned out over up to `threads` workers (0 =
// SweepThreadCount()); results return in grid order, byte-identical at any
// thread count. Gates:
//   - nothing hangs, every migration completes;
//   - pre-copy's best cell beats pure-copy on downtime for the
//     compute-bound workloads (Chess, Lisp-Del);
//   - page bytes order pre-copy >= pure-copy >= pure-IOU per workload
//     (dirty re-shipping is pre-copy's bill; §5's critique);
//   - the SLO predictor fires on the compute-bound workloads.
PreCopySweepSummary RunPreCopySweep(std::uint64_t seed = 42, int threads = 0);

// Canonical JSON (sorted keys): gates, the per-workload Pareto summary
// (downtime vs page bytes) and every cell.
Json PreCopySweepToJson(const PreCopySweepSummary& summary);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_PRECOPY_H_
