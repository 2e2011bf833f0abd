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
#include <vector>

#include "src/base/json.h"
#include "src/experiments/scenario.h"

namespace accent {

// The fixed grid: 7 workloads x (3 paper strategies + round caps {1,4,8} x
// SLOs {off, 1 s, 5 s}) = 84 specs, in deterministic order. A workload with
// enough compute runway migrates live (live_migrate_at, identical across
// its cells so every comparison is at the same migration point). Run it
// with RunMechTrials (scenario.h).
std::vector<FuzzScenario> PreCopySweepSpecs(std::uint64_t seed = 42);

// Canonical JSON (sorted keys) of the grid's runs: one MechRowToJson row per
// cell plus its live, max_rounds, target_downtime_ms and completed keys,
// the per-workload Pareto summary (downtime vs page bytes), and the gates:
//   - nothing hangs, every migration completes with intact contents;
//   - pre-copy's best cell beats pure-copy on downtime for the
//     compute-bound workloads (Chess, Lisp-Del);
//   - page bytes order pre-copy >= pure-copy >= pure-IOU per workload
//     (dirty re-shipping is pre-copy's bill; §5's critique);
//   - the SLO predictor fires on the compute-bound workloads.
Json PreCopySweepToJson(const std::vector<MechTrial>& cells);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_PRECOPY_H_
