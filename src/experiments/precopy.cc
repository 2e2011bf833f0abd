#include "src/experiments/precopy.h"

#include <algorithm>
#include <numeric>

#include "src/experiments/scenario.h"
#include "src/experiments/sweep.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// Only a compute-bound workload migrates live. Bulk transfer costs
// ~66 us/byte of NetMsgServer handling end to end (~15 KB/s, Table 4-5),
// so pre-copy's full-footprint snapshot round takes minutes of wall clock
// for a megabyte-scale image — even Lisp-Del's 40 s of compute runs dry
// mid-round, terminating at the source before the freeze. Chess (480 s of
// compute over a modest footprint) is the one workload that executes
// through its own migration; the rest use the paper's staged
// migration-point model, where the process has not started and pre-copy
// converges right after its snapshot round.
bool MigratesLive(const WorkloadSpec& spec) {
  return spec.pattern == AccessPattern::kComputeBound;
}

// Live migrations fire after this fraction of the workload's compute, far
// enough in that the source has a warm, actively-written working set.
constexpr int kMigrateAtDivisor = 20;  // 5%

// The compute-bound workloads the headline gates are scored on: the ones
// whose execution, not their footprint, dominates the trial — exactly
// where hiding transfer behind execution pays.
bool IsComputeBoundGate(const std::string& workload) {
  return workload == "Chess" || workload == "Lisp-Del";
}

const int kRoundCaps[] = {1, 4, 8};
const SimDuration kDowntimeSlos[] = {SimDuration{0}, Sec(1.0), Sec(5.0)};

// One workload's completed comparison cells: pure-copy, pure-IOU and
// pre-copy's best-downtime cell (the first minimum in grid order), plus
// pre-copy's smallest page bill and whether any pre-copy cell met its SLO.
struct WorkloadCells {
  const PreCopySweepCellResult* purecopy = nullptr;
  const PreCopySweepCellResult* pureiou = nullptr;
  const PreCopySweepCellResult* best_precopy = nullptr;
  ByteCount min_precopy_page_bytes = 0;
  bool precopy_slo_met = false;

  bool complete() const {
    return purecopy != nullptr && pureiou != nullptr && best_precopy != nullptr;
  }
};

WorkloadCells CellsOf(const std::vector<PreCopySweepCellResult>& cells,
                      const std::string& workload) {
  WorkloadCells w;
  for (const PreCopySweepCellResult& r : cells) {
    if (r.cell.workload != workload || !r.completed) {
      continue;
    }
    if (r.cell.strategy == TransferStrategy::kPureCopy) {
      w.purecopy = &r;
    } else if (r.cell.strategy == TransferStrategy::kPureIou) {
      w.pureiou = &r;
    } else if (r.cell.strategy == TransferStrategy::kPreCopy) {
      if (w.best_precopy == nullptr || r.downtime < w.best_precopy->downtime) {
        w.best_precopy = &r;
      }
      w.min_precopy_page_bytes = w.min_precopy_page_bytes == 0
                                     ? r.page_bytes
                                     : std::min(w.min_precopy_page_bytes, r.page_bytes);
      w.precopy_slo_met = w.precopy_slo_met || r.slo_met;
    }
  }
  return w;
}

}  // namespace

std::vector<PreCopySweepCell> PreCopySweepCells() {
  std::vector<PreCopySweepCell> cells;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const bool live = MigratesLive(spec);
    const SimDuration migrate_at = live ? spec.compute / kMigrateAtDivisor : SimDuration{0};
    for (TransferStrategy strategy :
         {TransferStrategy::kPureCopy, TransferStrategy::kPureIou,
          TransferStrategy::kResidentSet}) {
      PreCopySweepCell cell;
      cell.workload = spec.name;
      cell.strategy = strategy;
      cell.live = live;
      cell.migrate_at = migrate_at;
      cells.push_back(cell);
    }
    for (int max_rounds : kRoundCaps) {
      for (SimDuration slo : kDowntimeSlos) {
        PreCopySweepCell cell;
        cell.workload = spec.name;
        cell.strategy = TransferStrategy::kPreCopy;
        cell.max_rounds = max_rounds;
        cell.target_downtime = slo;
        cell.live = live;
        cell.migrate_at = migrate_at;
        cells.push_back(cell);
      }
    }
  }
  return cells;
}

PreCopySweepCellResult RunPreCopyCell(const PreCopySweepCell& cell, std::uint64_t seed) {
  FuzzScenario spec;
  spec.seed = seed;
  spec.workload = cell.workload;
  spec.strategy = cell.strategy;
  if (cell.live) {
    spec.live_migrate_at = cell.migrate_at;
  }
  if (cell.strategy == TransferStrategy::kPreCopy) {
    spec.precopy.max_rounds = cell.max_rounds;
    spec.precopy.target_downtime = cell.target_downtime;
  }
  const MechRun run = RunMech(spec, FaultPlan{}, seed);

  PreCopySweepCellResult result;
  result.cell = cell;
  result.hung = !run.drained;
  result.completed = run.drained && run.hop1_done && !run.hop1.aborted && run.finished &&
                     run.finish_host == spec.dest;
  if (!result.completed) {
    return result;
  }
  const auto bytes = [&run](TrafficKind kind) {
    return run.wire_bytes[static_cast<std::size_t>(kind)];
  };
  result.rounds = run.hop1.precopy_rounds;
  result.downtime = run.hop1.Downtime();
  result.total = run.finish - run.hop1.requested;
  result.page_bytes = bytes(TrafficKind::kBulkData) + bytes(TrafficKind::kFaultData);
  result.wire_bytes = std::accumulate(run.wire_bytes.begin(), run.wire_bytes.end(), ByteCount{0});
  result.wws_pages = run.hop1.precopy_wws_pages;
  result.predicted_downtime = run.hop1.precopy_predicted_downtime;
  result.slo_met = run.hop1.precopy_slo_met;
  return result;
}

PreCopySweepSummary RunPreCopySweep(std::uint64_t seed, int threads) {
  const std::vector<PreCopySweepCell> cells = PreCopySweepCells();

  // Cells share nothing (private testbeds), so thread count and scheduling
  // cannot reach any result.
  PreCopySweepSummary summary;
  summary.cells = ParallelMap(threads, cells.size(), [&cells, seed](std::size_t i) {
    return RunPreCopyCell(cells[i], seed);
  });
  for (const PreCopySweepCellResult& r : summary.cells) {
    summary.completed += r.completed ? 1 : 0;
    summary.hung += r.hung ? 1 : 0;
  }

  // Gate evaluation: per-workload extremes over the grid.
  summary.bytes_ordering_ok = true;
  summary.slo_ok = true;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const WorkloadCells w = CellsOf(summary.cells, spec.name);
    if (!w.complete()) {
      summary.bytes_ordering_ok = false;
      continue;
    }
    // Dirty re-shipping must cost: even pre-copy's cheapest cell moves at
    // least one full copy, and pure-copy moves more than copy-on-reference.
    if (w.min_precopy_page_bytes < w.purecopy->page_bytes ||
        w.purecopy->page_bytes < w.pureiou->page_bytes) {
      summary.bytes_ordering_ok = false;
    }
    if (IsComputeBoundGate(spec.name)) {
      if (w.best_precopy->downtime < w.purecopy->downtime) {
        ++summary.downtime_wins;
      }
      summary.slo_ok = summary.slo_ok && w.precopy_slo_met;
    }
  }
  summary.downtime_win_ok = summary.downtime_wins >= 2;
  return summary;
}

Json PreCopySweepToJson(const PreCopySweepSummary& summary) {
  Json cells{Json::Array{}};
  for (const PreCopySweepCellResult& r : summary.cells) {
    Json entry;
    entry["workload"] = Json(r.cell.workload);
    entry["strategy"] = Json(StrategyName(r.cell.strategy));
    entry["live"] = Json(r.cell.live);
    entry["max_rounds"] = Json(r.cell.max_rounds);
    entry["target_downtime_ms"] = Json(r.cell.target_downtime.count() / 1000);
    entry["completed"] = Json(r.completed);
    entry["hung"] = Json(r.hung);
    entry["rounds"] = Json(r.rounds);
    entry["downtime_s"] = Json(ToSeconds(r.downtime));
    entry["total_s"] = Json(ToSeconds(r.total));
    entry["page_bytes"] = Json(r.page_bytes);
    entry["wire_bytes"] = Json(r.wire_bytes);
    entry["wws_pages"] = Json(r.wws_pages);
    entry["predicted_downtime_s"] = Json(ToSeconds(r.predicted_downtime));
    entry["slo_met"] = Json(r.slo_met);
    cells.Append(std::move(entry));
  }

  // Per-workload Pareto summary: the two axes (downtime, page bytes) for
  // pure-copy, pure-IOU and pre-copy's best-downtime cell. The frontier
  // RESULTS.md renders falls straight out of these rows.
  Json pareto{Json::Array{}};
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const WorkloadCells w = CellsOf(summary.cells, spec.name);
    if (!w.complete()) {
      continue;
    }
    Json row;
    row["workload"] = Json(spec.name);
    row["live"] = Json(w.best_precopy->cell.live);
    row["purecopy_downtime_s"] = Json(ToSeconds(w.purecopy->downtime));
    row["purecopy_page_bytes"] = Json(w.purecopy->page_bytes);
    row["iou_downtime_s"] = Json(ToSeconds(w.pureiou->downtime));
    row["iou_page_bytes"] = Json(w.pureiou->page_bytes);
    row["precopy_downtime_s"] = Json(ToSeconds(w.best_precopy->downtime));
    row["precopy_page_bytes"] = Json(w.best_precopy->page_bytes);
    row["precopy_rounds"] = Json(w.best_precopy->rounds);
    row["precopy_max_rounds"] = Json(w.best_precopy->cell.max_rounds);
    row["precopy_target_downtime_ms"] =
        Json(w.best_precopy->cell.target_downtime.count() / 1000);
    row["downtime_win"] = Json(w.best_precopy->downtime < w.purecopy->downtime);
    pareto.Append(std::move(row));
  }

  Json report;
  report["bench"] = Json("precopy");
  report["schema_version"] = Json(1);
  report["trial_count"] = Json(static_cast<std::uint64_t>(summary.cells.size()));
  report["completed"] = Json(summary.completed);
  report["hung"] = Json(summary.hung);
  report["downtime_wins"] = Json(summary.downtime_wins);
  report["downtime_win_ok"] = Json(summary.downtime_win_ok);
  report["bytes_ordering_ok"] = Json(summary.bytes_ordering_ok);
  report["slo_ok"] = Json(summary.slo_ok);
  report["pareto"] = std::move(pareto);
  report["cells"] = std::move(cells);
  AddGate(&report, "hung", summary.hung, "==", 0);
  AddGate(&report, "completed", summary.completed, "==",
          static_cast<std::uint64_t>(summary.cells.size()));
  AddGate(&report, "downtime_wins", summary.downtime_wins, ">=", 2);
  AddGate(&report, "bytes_ordering_ok", summary.bytes_ordering_ok, "==", true);
  AddGate(&report, "slo_ok", summary.slo_ok, "==", true);
  return report;
}

}  // namespace accent
