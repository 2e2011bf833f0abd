#include "src/experiments/report.h"

#include <sstream>

#include "src/metrics/table.h"
#include "src/workloads/workload.h"

namespace accent {

std::string TrialReport(const MechTrial& trial) {
  const FuzzScenario& config = trial.spec;
  const WorkloadSpec& spec = WorkloadByName(config.workload);
  const MigrationRecord& migration = trial.run.hop1;
  const PagerStats& dest_pager = trial.run.dest_pager;
  const ByteCount real_transferred = RealBytesTransferred(config, trial.run);
  std::ostringstream out;
  out << "Migration trial: " << spec.name << ", " << StrategyName(config.strategy)
      << ", prefetch " << config.prefetch << ", seed " << config.seed << "\n\n";

  out << "Address space: Real " << FormatWithCommas(spec.real_bytes) << " B, RealZero "
      << FormatWithCommas(spec.zero_bytes) << " B ("
      << (spec.real_regions + spec.zero_regions) << " map entries)\n";
  out << "Resident set:  " << FormatWithCommas(spec.resident_bytes) << " B\n\n";

  out << "Phases (simulated seconds):\n";
  out << "  excision          " << FormatSeconds(migration.excise_overall) << "   (AMap "
      << FormatSeconds(migration.excise_amap) << ", RIMAS collapse "
      << FormatSeconds(migration.excise_rimas) << ")\n";
  out << "  RIMAS transfer    " << FormatSeconds(migration.RimasTransferTime()) << "\n";
  out << "  Core transfer     " << FormatSeconds(migration.CoreTransferTime()) << "\n";
  out << "  insertion         " << FormatSeconds(migration.insert_time) << "\n";
  out << "  remote execution  " << FormatSeconds(trial.run.RemoteExec()) << "\n";
  out << "  transfer + exec   " << FormatSeconds(trial.run.TransferPlusExec()) << "\n";
  out << "  downtime          " << FormatSeconds(migration.Downtime()) << "\n\n";

  if (config.strategy == TransferStrategy::kPreCopy) {
    out << "Pre-copy: " << migration.precopy_rounds << " live round"
        << (migration.precopy_rounds == 1 ? "" : "s") << ", "
        << FormatWithCommas(migration.precopy_bytes) << " B shipped while running, "
        << FormatWithCommas(migration.precopy_flash_bytes) << " B in the final flash\n";
    out << "  WWS estimate    " << FormatWithCommas(static_cast<ByteCount>(
                                       migration.precopy_wws_pages * kPageSize))
        << " B";
    if (config.precopy.target_downtime > SimDuration::zero()) {
      out << "; predicted final round " << FormatSeconds(migration.precopy_predicted_downtime)
          << " vs SLO " << FormatSeconds(config.precopy.target_downtime) << " ("
          << (migration.precopy_slo_met ? "met" : "missed") << ")";
    }
    out << "\n\n";
  }

  const MechRun& run = trial.run;
  out << "Traffic: total " << FormatWithCommas(run.WireBytes()) << " B (core "
      << FormatWithCommas(run.BytesOf(TrafficKind::kCoreContext)) << ", bulk "
      << FormatWithCommas(run.BytesOf(TrafficKind::kBulkData)) << ", fault "
      << FormatWithCommas(run.BytesOf(TrafficKind::kFaultData)) << ", control "
      << FormatWithCommas(run.BytesOf(TrafficKind::kControl)) << ") in " << run.messages
      << " messages\n";
  const double fraction =
      static_cast<double>(real_transferred) / static_cast<double>(spec.real_bytes);
  out << "RealMem shipped: " << FormatWithCommas(real_transferred) << " B ("
      << FormatPercent(fraction, 1) << " of RealMem)\n\n";

  out << "Destination faults: imaginary " << dest_pager.imag_faults << " (fetched "
      << dest_pager.imag_pages_fetched << ", prefetched " << dest_pager.prefetched_pages
      << ", hits " << dest_pager.prefetch_hits << "), zero-fill "
      << dest_pager.fillzero_faults << ", disk " << dest_pager.disk_faults << ", cow "
      << dest_pager.cow_faults << ", page-outs " << dest_pager.pageouts << "\n";
  out << "Message handling (both NetMsgServers): " << FormatSeconds(trial.run.netmsg_busy)
      << " s\n";
  return out.str();
}

std::string TrialCsvHeader() {
  return "workload,strategy,prefetch,seed,"
         "real_bytes,zero_bytes,resident_bytes,"
         "excise_s,amap_s,rimas_collapse_s,rimas_transfer_s,core_transfer_s,insert_s,"
         "remote_exec_s,transfer_plus_exec_s,downtime_s,"
         "bytes_total,bytes_core,bytes_bulk,bytes_fault,bytes_control,messages,"
         "real_bytes_transferred,imag_faults,pages_fetched,prefetched,prefetch_hits,"
         "fillzero_faults,disk_faults,netmsg_busy_s";
}

std::string TrialCsvRow(const MechTrial& trial) {
  const FuzzScenario& config = trial.spec;
  const WorkloadSpec& spec = WorkloadByName(config.workload);
  const MechRun& run = trial.run;
  const MigrationRecord& m = run.hop1;
  const PagerStats& pager = run.dest_pager;
  std::ostringstream out;
  out << spec.name << ',' << StrategyName(config.strategy) << ',' << config.prefetch << ','
      << config.seed << ',' << spec.real_bytes << ',' << spec.zero_bytes << ','
      << spec.resident_bytes << ',' << ToSeconds(m.excise_overall) << ','
      << ToSeconds(m.excise_amap) << ',' << ToSeconds(m.excise_rimas) << ','
      << ToSeconds(m.RimasTransferTime()) << ',' << ToSeconds(m.CoreTransferTime()) << ','
      << ToSeconds(m.insert_time) << ',' << ToSeconds(run.RemoteExec()) << ','
      << ToSeconds(run.TransferPlusExec()) << ',' << ToSeconds(m.Downtime()) << ','
      << run.WireBytes() << ',' << run.BytesOf(TrafficKind::kCoreContext) << ','
      << run.BytesOf(TrafficKind::kBulkData) << ',' << run.BytesOf(TrafficKind::kFaultData)
      << ',' << run.BytesOf(TrafficKind::kControl) << ',' << run.messages << ','
      << RealBytesTransferred(config, run) << ',' << pager.imag_faults << ','
      << pager.imag_pages_fetched << ',' << pager.prefetched_pages << ','
      << pager.prefetch_hits << ',' << pager.fillzero_faults << ',' << pager.disk_faults << ','
      << ToSeconds(run.netmsg_busy);
  return out.str();
}

std::string TrialsToCsv(const std::vector<MechTrial>& trials) {
  std::ostringstream out;
  out << TrialCsvHeader() << '\n';
  for (const MechTrial& trial : trials) {
    out << TrialCsvRow(trial) << '\n';
  }
  return out.str();
}

std::string SeriesToCsv(const MechRun& run) {
  std::ostringstream out;
  out << "time_s,fault_bytes,other_bytes\n";
  for (const auto& bucket : run.series) {
    const ByteCount fault = bucket.bytes[static_cast<int>(TrafficKind::kFaultData)];
    ByteCount other = 0;
    for (std::size_t k = 0; k < bucket.bytes.size(); ++k) {
      if (k != static_cast<std::size_t>(TrafficKind::kFaultData)) {
        other += bucket.bytes[k];
      }
    }
    out << ToSeconds(bucket.start) << ',' << fault << ',' << other << '\n';
  }
  return out.str();
}

}  // namespace accent
