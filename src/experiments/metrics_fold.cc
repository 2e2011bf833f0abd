#include "src/experiments/metrics_fold.h"

#include <vector>

#include "src/base/check.h"

namespace accent {
namespace {

// Second-resolution buckets spanning the paper's range: pure-IOU transfers
// sit near 0.15–0.3 s, pure-copy Lisp runs past 100 s.
const std::vector<double> kSecondsBounds = {0.05, 0.1,  0.25, 0.5, 1.0,
                                            2.5,  5.0,  10.0, 25.0, 50.0,
                                            100.0, 250.0};

}  // namespace

void FoldTrialMetrics(const TrialResult& result, MetricsRegistry* registry) {
  ACCENT_EXPECTS(registry != nullptr);
  registry->Counter("trials").Increment();
  registry->Counter("messages.total").Add(result.messages_total);
  registry->Counter("bytes.total").Add(result.bytes_total);
  registry->Counter("bytes.control").Add(result.bytes_control);
  registry->Counter("bytes.core").Add(result.bytes_core);
  registry->Counter("bytes.bulk").Add(result.bytes_bulk);
  registry->Counter("bytes.fault").Add(result.bytes_fault);
  registry->Counter("bytes.real_transferred").Add(result.real_bytes_transferred);

  const PagerStats& pager = result.dest_pager;
  registry->Counter("faults.fillzero").Add(pager.fillzero_faults);
  registry->Counter("faults.disk").Add(pager.disk_faults);
  registry->Counter("faults.cow").Add(pager.cow_faults);
  registry->Counter("faults.imaginary").Add(pager.imag_faults);
  registry->Counter("faults.iou_pulls").Add(pager.imag_pages_fetched);
  registry->Counter("faults.prefetched").Add(pager.prefetched_pages);
  registry->Counter("faults.prefetch_hits").Add(pager.prefetch_hits);

  registry->Histogram("downtime_seconds", kSecondsBounds)
      .Observe(ToSeconds(result.migration.Downtime()));
  registry->Histogram("rimas_transfer_seconds", kSecondsBounds)
      .Observe(ToSeconds(result.migration.RimasTransferTime()));
  registry->Histogram("netmsg_busy_seconds", kSecondsBounds)
      .Observe(ToSeconds(result.netmsg_busy));
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

Json TrialSummaryToJson(const TrialResult& result) {
  Json json{Json::Object{}};
  json["workload"] = Json(result.config.workload);
  json["strategy"] = Json(StrategyName(result.config.strategy));
  json["prefetch"] = Json(result.config.prefetch);
  json["iou_caching"] = Json(result.config.iou_caching);

  json["spec_real_bytes"] = Json(result.spec.real_bytes);
  json["spec_zero_bytes"] = Json(result.spec.zero_bytes);
  json["spec_total_bytes"] = Json(result.spec.total_bytes());
  json["spec_resident_bytes"] = Json(result.spec.resident_bytes);

  const MigrationRecord& m = result.migration;
  json["excise_amap_us"] = Json(m.excise_amap.count());
  json["excise_rimas_us"] = Json(m.excise_rimas.count());
  json["excise_overall_us"] = Json(m.excise_overall.count());
  json["insert_time_us"] = Json(m.insert_time.count());
  json["rimas_transfer_us"] = Json(m.RimasTransferTime().count());
  json["core_transfer_us"] = Json(m.CoreTransferTime().count());
  json["downtime_us"] = Json(m.Downtime().count());

  json["bytes_total"] = Json(result.bytes_total);
  json["bytes_control"] = Json(result.bytes_control);
  json["bytes_core"] = Json(result.bytes_core);
  json["bytes_bulk"] = Json(result.bytes_bulk);
  json["bytes_fault"] = Json(result.bytes_fault);
  json["messages_total"] = Json(result.messages_total);
  json["real_bytes_transferred"] = Json(result.real_bytes_transferred);
  json["frac_real_transferred"] = Json(result.FractionOfRealTransferred());
  json["frac_total_transferred"] = Json(result.FractionOfTotalTransferred());

  json["netmsg_busy_us"] = Json(result.netmsg_busy.count());
  json["remote_exec_us"] = Json(result.remote_exec.count());
  json["transfer_plus_exec_us"] = Json(result.TransferPlusExec().count());
  json["dest_imag_faults"] = Json(result.dest_pager.imag_faults);
  json["dest_imag_pages_fetched"] = Json(result.dest_pager.imag_pages_fetched);
  json["dest_prefetched_pages"] = Json(result.dest_pager.prefetched_pages);
  json["dest_prefetch_hits"] = Json(result.dest_pager.prefetch_hits);
  return json;
}

}  // namespace accent
