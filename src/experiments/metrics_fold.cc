#include "src/experiments/metrics_fold.h"

#include <vector>

#include "src/base/check.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// Second-resolution buckets spanning the paper's range: pure-IOU transfers
// sit near 0.15–0.3 s, pure-copy Lisp runs past 100 s.
const std::vector<double> kSecondsBounds = {0.05, 0.1,  0.25, 0.5, 1.0,
                                            2.5,  5.0,  10.0, 25.0, 50.0,
                                            100.0, 250.0};

}  // namespace

void FoldTrialMetrics(const MechTrial& trial, MetricsRegistry* registry) {
  ACCENT_EXPECTS(registry != nullptr);
  const MechRun& run = trial.run;
  registry->Counter("trials").Increment();
  registry->Counter("messages.total").Add(run.messages);
  registry->Counter("bytes.total").Add(run.WireBytes());
  registry->Counter("bytes.control").Add(run.BytesOf(TrafficKind::kControl));
  registry->Counter("bytes.core").Add(run.BytesOf(TrafficKind::kCoreContext));
  registry->Counter("bytes.bulk").Add(run.BytesOf(TrafficKind::kBulkData));
  registry->Counter("bytes.fault").Add(run.BytesOf(TrafficKind::kFaultData));
  registry->Counter("bytes.real_transferred").Add(RealBytesTransferred(trial.spec, run));

  const PagerStats& pager = run.dest_pager;
  registry->Counter("faults.fillzero").Add(pager.fillzero_faults);
  registry->Counter("faults.disk").Add(pager.disk_faults);
  registry->Counter("faults.cow").Add(pager.cow_faults);
  registry->Counter("faults.imaginary").Add(pager.imag_faults);
  registry->Counter("faults.iou_pulls").Add(pager.imag_pages_fetched);
  registry->Counter("faults.prefetched").Add(pager.prefetched_pages);
  registry->Counter("faults.prefetch_hits").Add(pager.prefetch_hits);

  registry->Histogram("downtime_seconds", kSecondsBounds).Observe(ToSeconds(run.Downtime()));
  registry->Histogram("rimas_transfer_seconds", kSecondsBounds)
      .Observe(ToSeconds(run.hop1.RimasTransferTime()));
  registry->Histogram("netmsg_busy_seconds", kSecondsBounds)
      .Observe(ToSeconds(run.netmsg_busy));
}

void FoldDedupMetrics(const DedupResult& result, MetricsRegistry* registry) {
  ACCENT_EXPECTS(registry != nullptr);
  registry->Counter("cache.hits").Add(result.cache_hits);
  registry->Counter("cache.misses").Add(result.cache_misses);
  registry->Counter("cache.insertions").Add(result.cache_insertions);
  registry->Counter("cache.evictions").Add(result.cache_evictions);
  registry->Counter("cache.offloaded_pages").Add(result.offloaded_pages);
  registry->Counter("cache.origin_payload_pages").Add(result.origin_payload_pages);
  registry->Counter("cache.wire_bytes").Add(result.wire_bytes);
}

Json PaperRowToJson(const MechTrial& trial) {
  const MechRun& run = trial.run;
  const WorkloadSpec& spec = WorkloadByName(trial.spec.workload);
  const auto fraction = [](ByteCount part, ByteCount whole) {
    return Json(whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole));
  };
  const ByteCount real_transferred = RealBytesTransferred(trial.spec, run);

  Json json = MechRowToJson(trial.spec, run, trial.verdict);
  json["iou_caching"] = Json(trial.spec.iou_caching);

  json["spec_real_bytes"] = Json(spec.real_bytes);
  json["spec_zero_bytes"] = Json(spec.zero_bytes);
  json["spec_total_bytes"] = Json(spec.total_bytes());
  json["spec_resident_bytes"] = Json(spec.resident_bytes);

  const MigrationRecord& m = run.hop1;
  json["excise_amap_us"] = Json(m.excise_amap.count());
  json["excise_rimas_us"] = Json(m.excise_rimas.count());
  json["excise_overall_us"] = Json(m.excise_overall.count());
  json["insert_time_us"] = Json(m.insert_time.count());
  json["rimas_transfer_us"] = Json(m.RimasTransferTime().count());
  json["core_transfer_us"] = Json(m.CoreTransferTime().count());

  json["bytes_total"] = Json(run.WireBytes());
  json["bytes_control"] = Json(run.BytesOf(TrafficKind::kControl));
  json["bytes_core"] = Json(run.BytesOf(TrafficKind::kCoreContext));
  json["bytes_bulk"] = Json(run.BytesOf(TrafficKind::kBulkData));
  json["bytes_fault"] = Json(run.BytesOf(TrafficKind::kFaultData));
  json["messages_total"] = Json(run.messages);
  json["real_bytes_transferred"] = Json(real_transferred);
  json["frac_real_transferred"] = fraction(real_transferred, spec.real_bytes);
  json["frac_total_transferred"] = fraction(real_transferred, spec.total_bytes());

  json["netmsg_busy_us"] = Json(run.netmsg_busy.count());
  json["remote_exec_us"] = Json(run.RemoteExec().count());
  json["transfer_plus_exec_us"] = Json(run.TransferPlusExec().count());
  json["dest_imag_faults"] = Json(run.dest_pager.imag_faults);
  json["dest_imag_pages_fetched"] = Json(run.dest_pager.imag_pages_fetched);
  json["dest_prefetched_pages"] = Json(run.dest_pager.prefetched_pages);
  json["dest_prefetch_hits"] = Json(run.dest_pager.prefetch_hits);
  return json;
}

}  // namespace accent
