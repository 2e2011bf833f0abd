#include "src/experiments/precopy.h"

#include <algorithm>
#include <string>

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

// A cell completed: its one hop finished and the process ran to completion
// at the destination.
bool Completed(const MechTrial& cell) {
  const MechRun& run = cell.run;
  return run.drained && run.hop1_done && !run.hop1.aborted && run.finished &&
         run.finish_host == cell.spec.dest;
}

// One workload's completed comparison cells: pure-copy, pure-IOU and
// pre-copy's best-downtime cell (the first minimum in grid order), plus
// pre-copy's smallest page bill and whether any pre-copy cell met its SLO.
struct WorkloadCells {
  const MechTrial* purecopy = nullptr;
  const MechTrial* pureiou = nullptr;
  const MechTrial* best_precopy = nullptr;
  ByteCount min_precopy_page_bytes = 0;
  bool precopy_slo_met = false;

  bool complete() const {
    return purecopy != nullptr && pureiou != nullptr && best_precopy != nullptr;
  }
};

WorkloadCells CellsOf(const std::vector<MechTrial>& cells, const std::string& workload) {
  WorkloadCells w;
  for (const MechTrial& r : cells) {
    if (r.spec.workload != workload || !Completed(r)) {
      continue;
    }
    if (r.spec.strategy == TransferStrategy::kPureCopy) {
      w.purecopy = &r;
    } else if (r.spec.strategy == TransferStrategy::kPureIou) {
      w.pureiou = &r;
    } else if (r.spec.strategy == TransferStrategy::kPreCopy) {
      if (w.best_precopy == nullptr || r.run.Downtime() < w.best_precopy->run.Downtime()) {
        w.best_precopy = &r;
      }
      w.min_precopy_page_bytes = w.min_precopy_page_bytes == 0
                                     ? r.run.PageBytes()
                                     : std::min(w.min_precopy_page_bytes, r.run.PageBytes());
      w.precopy_slo_met = w.precopy_slo_met || r.run.hop1.precopy_slo_met;
    }
  }
  return w;
}

// Pre-copy's round cap and downtime SLO; zero for the paper's strategies,
// which ignore them.
int MaxRounds(const FuzzScenario& spec) {
  return spec.strategy == TransferStrategy::kPreCopy ? spec.precopy.max_rounds : 0;
}
std::int64_t TargetDowntimeMs(const FuzzScenario& spec) {
  return spec.strategy == TransferStrategy::kPreCopy ? spec.precopy.target_downtime.count() / 1000
                                                     : 0;
}

}  // namespace

std::vector<FuzzScenario> PreCopySweepSpecs(std::uint64_t seed) {
  std::vector<FuzzScenario> specs;
  for (const WorkloadSpec& workload : RepresentativeWorkloads()) {
    FuzzScenario spec;
    spec.seed = seed;
    spec.workload = workload.name;
    if (MigratesLive(workload)) {
      spec.live_migrate_at = workload.compute / kMigrateAtDivisor;
    }
    for (TransferStrategy strategy :
         {TransferStrategy::kPureCopy, TransferStrategy::kPureIou,
          TransferStrategy::kResidentSet}) {
      spec.strategy = strategy;
      specs.push_back(spec);
    }
    spec.strategy = TransferStrategy::kPreCopy;
    for (int max_rounds : kRoundCaps) {
      for (SimDuration slo : kDowntimeSlos) {
        spec.precopy.max_rounds = max_rounds;
        spec.precopy.target_downtime = slo;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

Json PreCopySweepToJson(const std::vector<MechTrial>& cells) {
  std::uint64_t completed = 0;
  std::uint64_t hung = 0;
  std::uint64_t integrity_failures = 0;
  Json cell_rows{Json::Array{}};
  for (const MechTrial& r : cells) {
    completed += Completed(r) ? 1 : 0;
    hung += r.run.drained ? 0 : 1;
    integrity_failures += Completed(r) && !r.verdict.integrity_ok ? 1 : 0;
    Json entry = MechRowToJson(r.spec, r.run, r.verdict);
    entry["live"] = Json(r.spec.live_migrate_at != SimDuration{0});
    entry["max_rounds"] = Json(MaxRounds(r.spec));
    entry["target_downtime_ms"] = Json(TargetDowntimeMs(r.spec));
    entry["completed"] = Json(Completed(r));
    cell_rows.Append(std::move(entry));
  }

  // Gate evaluation: per-workload extremes over the grid.
  int downtime_wins = 0;           // compute-bound workloads beating pure-copy
  bool bytes_ordering_ok = true;   // per workload: precopy >= pure-copy >= IOU
  bool slo_ok = true;              // SLO met on every compute-bound workload
  // Per-workload Pareto summary: the two axes (downtime, page bytes) for
  // pure-copy, pure-IOU and pre-copy's best-downtime cell. The frontier
  // RESULTS.md renders falls straight out of these rows.
  Json pareto{Json::Array{}};
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    const WorkloadCells w = CellsOf(cells, spec.name);
    if (!w.complete()) {
      bytes_ordering_ok = false;
      continue;
    }
    // Dirty re-shipping must cost: even pre-copy's cheapest cell moves at
    // least one full copy, and pure-copy moves more than copy-on-reference.
    if (w.min_precopy_page_bytes < w.purecopy->run.PageBytes() ||
        w.purecopy->run.PageBytes() < w.pureiou->run.PageBytes()) {
      bytes_ordering_ok = false;
    }
    const bool downtime_win = w.best_precopy->run.Downtime() < w.purecopy->run.Downtime();
    if (IsComputeBoundGate(spec.name)) {
      downtime_wins += downtime_win ? 1 : 0;
      slo_ok = slo_ok && w.precopy_slo_met;
    }

    const FuzzScenario& best = w.best_precopy->spec;
    Json row;
    row["workload"] = Json(spec.name);
    row["live"] = Json(best.live_migrate_at != SimDuration{0});
    row["purecopy_downtime_s"] = Json(ToSeconds(w.purecopy->run.Downtime()));
    row["purecopy_page_bytes"] = Json(w.purecopy->run.PageBytes());
    row["iou_downtime_s"] = Json(ToSeconds(w.pureiou->run.Downtime()));
    row["iou_page_bytes"] = Json(w.pureiou->run.PageBytes());
    row["precopy_downtime_s"] = Json(ToSeconds(w.best_precopy->run.Downtime()));
    row["precopy_page_bytes"] = Json(w.best_precopy->run.PageBytes());
    row["precopy_rounds"] = Json(w.best_precopy->run.hop1.precopy_rounds);
    row["precopy_max_rounds"] = Json(MaxRounds(best));
    row["precopy_target_downtime_ms"] = Json(TargetDowntimeMs(best));
    row["downtime_win"] = Json(downtime_win);
    pareto.Append(std::move(row));
  }

  Json report;
  report["bench"] = Json("precopy");
  report["schema_version"] = Json(2);
  report["trial_count"] = Json(static_cast<std::uint64_t>(cells.size()));
  report["completed"] = Json(completed);
  report["hung"] = Json(hung);
  report["integrity_failures"] = Json(integrity_failures);
  report["downtime_wins"] = Json(downtime_wins);
  report["downtime_win_ok"] = Json(downtime_wins >= 2);
  report["bytes_ordering_ok"] = Json(bytes_ordering_ok);
  report["slo_ok"] = Json(slo_ok);
  report["pareto"] = std::move(pareto);
  report["cells"] = std::move(cell_rows);
  AddGate(&report, "hung", hung, "==", 0);
  AddGate(&report, "completed", completed, "==", static_cast<std::uint64_t>(cells.size()));
  AddGate(&report, "downtime_wins", downtime_wins, ">=", 2);
  AddGate(&report, "bytes_ordering_ok", bytes_ordering_ok, "==", true);
  AddGate(&report, "slo_ok", slo_ok, "==", true);
  AddGate(&report, "integrity_failures", integrity_failures, "==", 0);
  return report;
}

}  // namespace accent
