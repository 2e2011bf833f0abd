// Report/CSV rendering tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/experiments/report.h"

namespace accent {
namespace {

MechTrial SampleTrial() {
  return RunMechTrials({{.strategy = TransferStrategy::kPureIou, .prefetch = 1}}, 1)[0];
}

TEST(Report, HumanReadableContainsKeyFacts) {
  const MechTrial trial = SampleTrial();
  const std::string report = TrialReport(trial);
  EXPECT_NE(report.find("Minprog"), std::string::npos);
  EXPECT_NE(report.find("pure-IOU"), std::string::npos);
  EXPECT_NE(report.find("142,336"), std::string::npos);  // Real bytes
  EXPECT_NE(report.find("RIMAS transfer"), std::string::npos);
  EXPECT_NE(report.find("imaginary"), std::string::npos);
}

TEST(Report, CsvRowMatchesHeaderArity) {
  const MechTrial trial = SampleTrial();
  const std::string header = TrialCsvHeader();
  const std::string row = TrialCsvRow(trial);
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header), count(row));
  EXPECT_EQ(row.substr(0, 8), "Minprog,");
}

TEST(Report, CsvDocumentOnePlusNRows) {
  const std::vector<MechTrial> trials = {SampleTrial(), SampleTrial()};
  const std::string csv = TrialsToCsv(trials);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_EQ(csv.find("workload,"), 0u);
}

TEST(Report, CsvValuesRoundTrip) {
  const MechTrial trial = SampleTrial();
  std::stringstream row(TrialCsvRow(trial));
  std::string field;
  std::getline(row, field, ',');
  EXPECT_EQ(field, "Minprog");
  std::getline(row, field, ',');
  EXPECT_EQ(field, "pure-IOU");
  std::getline(row, field, ',');
  EXPECT_EQ(field, "1");  // prefetch
  std::getline(row, field, ',');
  EXPECT_EQ(field, "42");  // seed
  std::getline(row, field, ',');
  EXPECT_EQ(field, "142336");  // real_bytes
}

TEST(Report, SeriesCsvSumsToTotals) {
  const MechTrial trial = SampleTrial();
  const std::string csv = SeriesToCsv(trial.run);
  std::stringstream in(csv);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time_s,fault_bytes,other_bytes");
  ByteCount fault = 0;
  ByteCount other = 0;
  while (std::getline(in, line)) {
    std::stringstream fields(line);
    std::string t, f, o;
    std::getline(fields, t, ',');
    std::getline(fields, f, ',');
    std::getline(fields, o, ',');
    fault += std::stoull(f);
    other += std::stoull(o);
  }
  EXPECT_EQ(fault, trial.run.BytesOf(TrafficKind::kFaultData));
  EXPECT_EQ(fault + other, trial.run.WireBytes());
}

}  // namespace
}  // namespace accent
