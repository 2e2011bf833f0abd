// Trial reporting: human-readable records and CSV export.
//
// The bench harness prints paper-shaped tables; downstream users plotting
// their own figures want raw rows. TrialsToCsv renders any set of spec runs
// as a flat CSV with one row per trial, and TrialReport formats the full
// record of a single trial (shared by tools/migrate_sim).
#ifndef SRC_EXPERIMENTS_REPORT_H_
#define SRC_EXPERIMENTS_REPORT_H_

#include <string>
#include <vector>

#include "src/experiments/scenario.h"

namespace accent {

// Multi-line human-readable report of one trial (phases, traffic, faults).
std::string TrialReport(const MechTrial& trial);

// Header line for TrialCsvRow.
std::string TrialCsvHeader();

// One CSV row: workload,strategy,prefetch,... (matches TrialCsvHeader).
std::string TrialCsvRow(const MechTrial& trial);

// Full CSV document for a set of trials.
std::string TrialsToCsv(const std::vector<MechTrial>& trials);

// Figure 4-5-style series as CSV: time_s,fault_bytes,other_bytes.
std::string SeriesToCsv(const MechRun& run);

}  // namespace accent

#endif  // SRC_EXPERIMENTS_REPORT_H_
