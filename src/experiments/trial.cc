#include "src/experiments/trial.h"

#include "src/base/check.h"

namespace accent {

TrialResult RunTrial(const TrialConfig& config) {
  const MechRun run = RunMech(config, FaultPlan{}, config.seed);
  ACCENT_CHECK(run.hop1_done && !run.hop1.aborted)
      << " migration of " << config.workload << " never completed";
  ACCENT_CHECK(run.finished && run.finish_host == config.dest)
      << " " << config.workload << " did not finish remote execution";

  TrialResult result;
  result.config = config;
  result.spec = WorkloadByName(config.workload);
  result.migration = run.hop1;
  result.finished = run.finish;
  result.remote_exec = run.RemoteExec();
  result.bytes_total = run.WireBytes();
  result.bytes_control = run.BytesOf(TrafficKind::kControl);
  result.bytes_core = run.BytesOf(TrafficKind::kCoreContext);
  result.bytes_bulk = run.BytesOf(TrafficKind::kBulkData);
  result.bytes_fault = run.BytesOf(TrafficKind::kFaultData);
  result.messages_total = run.messages;
  result.series = run.series;
  result.netmsg_busy = run.netmsg_busy;
  result.dest_pager = run.dest_pager;
  result.real_bytes_transferred = RealBytesTransferred(config, run);
  return result;
}

}  // namespace accent
