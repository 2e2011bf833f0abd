#include "src/experiments/precopy.h"

#include <algorithm>
#include <optional>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/experiments/sweep.h"
#include "src/experiments/testbed.h"
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
  PreCopySweepCellResult result;
  result.cell = cell;

  Testbed bed;
  WorkloadInstance instance =
      BuildWorkload(WorkloadByName(cell.workload), bed.host(0), seed);
  Process* proc = instance.process.get();
  const PortId owned_port =
      bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "proc-owned");
  proc->AttachReceiveRight(owned_port);
  bed.manager(0)->RegisterLocal(proc);

  Process* remote = nullptr;
  bed.manager(1)->set_on_insert([&remote](Process* inserted) { remote = inserted; });

  if (cell.live) {
    proc->Start();
    bed.sim().RunUntil(cell.migrate_at);
  }

  if (cell.strategy == TransferStrategy::kPreCopy) {
    PreCopyConfig config;
    config.max_rounds = cell.max_rounds;
    config.target_downtime = cell.target_downtime;
    bed.manager(0)->set_precopy_config(config);
  }

  bool done = false;
  MigrationRecord record;
  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), cell.strategy,
                          [&](const MigrationRecord& r) {
                            record = r;
                            done = true;
                          });

  const bool drained = bed.RunGuarded();
  result.hung = !drained;
  result.completed = drained && done && !record.aborted && remote != nullptr &&
                     remote->done() && !remote->faulted();
  if (!result.completed) {
    return result;
  }

  result.rounds = record.precopy_rounds;
  result.downtime = record.Downtime();
  result.total = remote->finish_time() - record.requested;
  result.page_bytes = bed.traffic().BytesOf(TrafficKind::kBulkData) +
                      bed.traffic().BytesOf(TrafficKind::kFaultData);
  result.wire_bytes = bed.traffic().TotalBytes();
  result.wws_pages = record.precopy_wws_pages;
  result.predicted_downtime = record.precopy_predicted_downtime;
  result.slo_met = record.precopy_slo_met;
  return result;
}

PreCopySweepSummary RunPreCopySweep(std::uint64_t seed, int threads) {
  if (threads <= 0) {
    threads = SweepThreadCount();
  }
  const std::vector<PreCopySweepCell> cells = PreCopySweepCells();

  // One slot per cell; cells share nothing (private testbeds), so thread
  // count and scheduling cannot reach any result.
  std::vector<std::optional<PreCopySweepCellResult>> slots(cells.size());
  ParallelFor(threads, cells.size(),
              [&](std::size_t i) { slots[i] = RunPreCopyCell(cells[i], seed); });

  PreCopySweepSummary summary;
  summary.cells.reserve(slots.size());
  for (std::optional<PreCopySweepCellResult>& slot : slots) {
    ACCENT_CHECK(slot.has_value()) << " pre-copy sweep slot never filled";
    summary.completed += slot->completed ? 1 : 0;
    summary.hung += slot->hung ? 1 : 0;
    summary.cells.push_back(std::move(*slot));
  }

  // Gate evaluation: per-workload extremes over the grid.
  summary.bytes_ordering_ok = true;
  summary.slo_ok = true;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const PreCopySweepCellResult* purecopy = nullptr;
    const PreCopySweepCellResult* pureiou = nullptr;
    const PreCopySweepCellResult* best_precopy = nullptr;  // min downtime
    ByteCount min_precopy_page_bytes = 0;
    bool workload_slo_met = false;
    for (const PreCopySweepCellResult& r : summary.cells) {
      if (r.cell.workload != spec.name || !r.completed) {
        continue;
      }
      switch (r.cell.strategy) {
        case TransferStrategy::kPureCopy:
          purecopy = &r;
          break;
        case TransferStrategy::kPureIou:
          pureiou = &r;
          break;
        case TransferStrategy::kResidentSet:
          break;
        case TransferStrategy::kPreCopy:
          if (best_precopy == nullptr || r.downtime < best_precopy->downtime) {
            best_precopy = &r;
          }
          min_precopy_page_bytes = min_precopy_page_bytes == 0
                                       ? r.page_bytes
                                       : std::min(min_precopy_page_bytes, r.page_bytes);
          workload_slo_met = workload_slo_met || r.slo_met;
          break;
      }
    }
    if (purecopy == nullptr || pureiou == nullptr || best_precopy == nullptr) {
      summary.bytes_ordering_ok = false;
      continue;
    }
    // Dirty re-shipping must cost: even pre-copy's cheapest cell moves at
    // least one full copy, and pure-copy moves more than copy-on-reference.
    if (min_precopy_page_bytes < purecopy->page_bytes ||
        purecopy->page_bytes < pureiou->page_bytes) {
      summary.bytes_ordering_ok = false;
    }
    if (IsComputeBoundGate(spec.name)) {
      if (best_precopy->downtime < purecopy->downtime) {
        ++summary.downtime_wins;
      }
      summary.slo_ok = summary.slo_ok && workload_slo_met;
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
    const PreCopySweepCellResult* purecopy = nullptr;
    const PreCopySweepCellResult* pureiou = nullptr;
    const PreCopySweepCellResult* best_precopy = nullptr;
    for (const PreCopySweepCellResult& r : summary.cells) {
      if (r.cell.workload != spec.name || !r.completed) {
        continue;
      }
      if (r.cell.strategy == TransferStrategy::kPureCopy) {
        purecopy = &r;
      } else if (r.cell.strategy == TransferStrategy::kPureIou) {
        pureiou = &r;
      } else if (r.cell.strategy == TransferStrategy::kPreCopy &&
                 (best_precopy == nullptr || r.downtime < best_precopy->downtime)) {
        best_precopy = &r;
      }
    }
    if (purecopy == nullptr || pureiou == nullptr || best_precopy == nullptr) {
      continue;
    }
    Json row;
    row["workload"] = Json(spec.name);
    row["live"] = Json(best_precopy->cell.live);
    row["purecopy_downtime_s"] = Json(ToSeconds(purecopy->downtime));
    row["purecopy_page_bytes"] = Json(purecopy->page_bytes);
    row["iou_downtime_s"] = Json(ToSeconds(pureiou->downtime));
    row["iou_page_bytes"] = Json(pureiou->page_bytes);
    row["precopy_downtime_s"] = Json(ToSeconds(best_precopy->downtime));
    row["precopy_page_bytes"] = Json(best_precopy->page_bytes);
    row["precopy_rounds"] = Json(best_precopy->rounds);
    row["precopy_max_rounds"] = Json(best_precopy->cell.max_rounds);
    row["precopy_target_downtime_ms"] =
        Json(best_precopy->cell.target_downtime.count() / 1000);
    row["downtime_win"] = Json(best_precopy->downtime < purecopy->downtime);
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
