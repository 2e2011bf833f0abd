// Parallel trial-sweep engine, and the paper's grid.
//
// The paper's evaluation is a grid of fully independent migration trials:
// each RunMech builds its own Testbed (private Simulator, hosts, fabric),
// so trials share no mutable state and can fan out across cores. The engine
// preserves the serial contract bit-for-bit: results come back in input
// order, and every trial's RNG is seeded from its own spec, so thread
// count and OS scheduling cannot leak into any metric. A parallel sweep is
// therefore byte-identical to the serial one (tests/parallel_sweep_test.cc
// asserts this for 1, 2 and 8 threads).
#ifndef SRC_EXPERIMENTS_SWEEP_H_
#define SRC_EXPERIMENTS_SWEEP_H_

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/experiments/scenario.h"

namespace accent {

// Thread count for sweeps: the ACCENT_SWEEP_THREADS environment variable if
// set to a positive integer, otherwise hardware_concurrency; always >= 1.
int SweepThreadCount();

// Runs fn(i) for every i in [0, count) across up to `threads` workers
// (<= 0 = SweepThreadCount()) and returns the results in index order. Each
// result lands in its own slot, so completion order (which depends on
// scheduling) never reaches the output: with independent iterations the
// result is byte-identical at any thread count.
template <typename Fn>
auto ParallelMap(int threads, std::size_t count, Fn fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  std::vector<std::optional<Result>> slots(count);
  ParallelFor(threads > 0 ? threads : SweepThreadCount(), count,
              [&slots, &fn](std::size_t i) { slots[i] = fn(i); });
  std::vector<Result> results;
  results.reserve(count);
  for (std::optional<Result>& slot : slots) {
    ACCENT_CHECK(slot.has_value()) << " sweep slot never filled";
    results.push_back(std::move(*slot));
  }
  return results;
}

// The paper's full grid for one workload on the lossless two-host testbed:
// pure-copy once (it ignores prefetch), then {pure-IOU, resident-set} x
// kPaperPrefetchValues — 11 specs. This is the single source of truth for
// grid order; the chain grid (chain.h) re-migrates the same cells.
std::vector<FuzzScenario> PaperGridSpecs(const std::string& workload, std::uint64_t seed = 42);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_SWEEP_H_
