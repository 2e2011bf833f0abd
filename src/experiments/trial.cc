#include "src/experiments/trial.h"

#include <utility>

#include "src/base/logging.h"
#include "src/experiments/sweep.h"
#include "src/experiments/testbed.h"

namespace accent {

TrialResult RunTrial(const TrialConfig& config) {
  TestbedConfig testbed_config;
  testbed_config.host_count = 2;
  testbed_config.iou_caching = config.iou_caching;
  testbed_config.frames_per_host = config.frames_per_host;
  testbed_config.traffic_bucket = config.traffic_bucket;
  testbed_config.costs.rs_zero_scan_per_mb = config.rs_zero_scan_per_mb;
  testbed_config.content_cache = config.content_cache;
  testbed_config.content_cache_pages = config.content_cache_pages;
  testbed_config.checkpoint_store = config.checkpoint;
  testbed_config.tracer = config.tracer;
  Testbed bed(testbed_config);

  TrialResult result;
  result.config = config;

  bed.SetPrefetch(config.prefetch);

  WorkloadInstance instance = BuildWorkload(WorkloadByName(config.workload), bed.host(0),
                                            config.seed);
  result.spec = instance.spec;
  Process* proc = instance.process.get();

  // Give the process a port so right-transfer is exercised on every trial.
  const PortId owned_port = bed.fabric().AllocatePort(bed.host(0)->id, nullptr, "proc-owned");
  proc->AttachReceiveRight(owned_port);
  bed.manager(0)->RegisterLocal(proc);

  Process* remote_proc = nullptr;
  bed.manager(1)->set_on_insert([&](Process* inserted) { remote_proc = inserted; });

  if (config.strategy == TransferStrategy::kPreCopy) {
    PreCopyConfig precopy;
    precopy.max_rounds = config.precopy_max_rounds;
    precopy.stop_threshold = config.precopy_stop_threshold;
    precopy.target_downtime = config.precopy_target_downtime;
    bed.manager(0)->set_precopy_config(precopy);
  }

  bool completed = false;
  bed.manager(0)->Migrate(proc, bed.manager(1)->port(), config.strategy,
                          [&](const MigrationRecord& record) {
                            result.migration = record;
                            completed = true;
                          });

  bed.sim().Run();
  ACCENT_CHECK(completed) << " migration of " << config.workload << " never completed";
  ACCENT_CHECK(remote_proc != nullptr);
  ACCENT_CHECK(remote_proc->done())
      << " " << config.workload << " did not finish remote execution";

  result.finished = remote_proc->finish_time();
  result.remote_exec = result.finished - result.migration.resumed;

  const TrafficRecorder& traffic = bed.traffic();
  result.bytes_total = traffic.TotalBytes();
  result.bytes_control = traffic.BytesOf(TrafficKind::kControl);
  result.bytes_core = traffic.BytesOf(TrafficKind::kCoreContext);
  result.bytes_bulk = traffic.BytesOf(TrafficKind::kBulkData);
  result.bytes_fault = traffic.BytesOf(TrafficKind::kFaultData);
  result.messages_total = traffic.TotalMessages();
  result.series = traffic.buckets();
  result.series_bucket = traffic.bucket_width();
  result.netmsg_busy = bed.TotalNetMsgBusy();
  result.dest_pager = bed.pager(1)->stats();

  // RealMem bytes that crossed as page data: shipped at migration time plus
  // pages fetched by imaginary faults (incl. prefetch).
  ByteCount shipped = 0;
  switch (config.strategy) {
    case TransferStrategy::kPureCopy:
      shipped = result.spec.real_bytes;
      break;
    case TransferStrategy::kPureIou:
      // Substitution off, the NetMsgServer ships the RIMAS data as-is.
      shipped = config.iou_caching ? 0 : result.spec.real_bytes;
      break;
    case TransferStrategy::kResidentSet:
      shipped = result.migration.resident_bytes_shipped;
      break;
    case TransferStrategy::kPreCopy:
      // Rounds shipped while running plus the freeze-and-flash remainder;
      // re-shipped dirty pages count every time they cross.
      shipped = result.migration.precopy_bytes + result.migration.precopy_flash_bytes;
      break;
  }
  result.real_bytes_transferred =
      shipped + result.dest_pager.imag_pages_fetched * kPageSize;
  return result;
}

std::vector<TrialResult> RunStrategySweep(const std::string& workload, std::uint64_t seed) {
  // Serial reference path: same grid as the parallel engine (sweep.h), one
  // trial at a time on the calling thread.
  std::vector<TrialResult> results;
  for (const TrialConfig& config : StrategySweepConfigs(workload, seed)) {
    results.push_back(RunTrial(config));
  }
  return results;
}

}  // namespace accent
