// Report/CSV rendering tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/experiments/report.h"

namespace accent {
namespace {

TrialResult SampleTrial() {
  TrialConfig config;
  config.workload = "Minprog";
  config.strategy = TransferStrategy::kPureIou;
  config.prefetch = 1;
  return RunTrial(config);
}

TEST(Report, HumanReadableContainsKeyFacts) {
  const TrialResult trial = SampleTrial();
  const std::string report = TrialReport(trial);
  EXPECT_NE(report.find("Minprog"), std::string::npos);
  EXPECT_NE(report.find("pure-IOU"), std::string::npos);
  EXPECT_NE(report.find("142,336"), std::string::npos);  // Real bytes
  EXPECT_NE(report.find("RIMAS transfer"), std::string::npos);
  EXPECT_NE(report.find("imaginary"), std::string::npos);
}

TEST(Report, CsvRowMatchesHeaderArity) {
  const TrialResult trial = SampleTrial();
  const std::string header = TrialCsvHeader();
  const std::string row = TrialCsvRow(trial);
  const auto count = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(count(header), count(row));
  EXPECT_EQ(row.substr(0, 8), "Minprog,");
}

TEST(Report, CsvDocumentOnePlusNRows) {
  const std::vector<TrialResult> trials = {SampleTrial(), SampleTrial()};
  const std::string csv = TrialsToCsv(trials);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_EQ(csv.find("workload,"), 0u);
}

TEST(Report, CsvValuesRoundTrip) {
  const TrialResult trial = SampleTrial();
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
  const TrialResult trial = SampleTrial();
  const std::string csv = SeriesToCsv(trial);
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
  EXPECT_EQ(fault, trial.bytes_fault);
  EXPECT_EQ(fault + other, trial.bytes_total);
}

// BENCH_sweep.json's Figure 4-5 series sums five 500 ms grid buckets into
// each 2.5 s bucket. That equals a 2.5 s recorder only if every byte lands in
// the coarse bucket that holds its fine one, and the bucket width changes
// nothing else about the trial.
TEST(Report, CoarseSeriesIsFineSeriesSummed) {
  for (TransferStrategy strategy : {TransferStrategy::kPureIou, TransferStrategy::kResidentSet,
                                    TransferStrategy::kPureCopy}) {
    TrialConfig config;
    config.workload = "Lisp-Del";
    config.strategy = strategy;
    const TrialResult fine = RunTrial(config);
    config.traffic_bucket = Ms(2500);
    const TrialResult coarse = RunTrial(config);
    ASSERT_EQ(fine.series_bucket * 5, coarse.series_bucket);
    ASSERT_EQ(coarse.series.size(), (fine.series.size() + 4) / 5) << StrategyName(strategy);
    for (std::size_t i = 0; i < coarse.series.size(); ++i) {
      EXPECT_EQ(coarse.series[i].start, fine.series[5 * i].start);
      for (std::size_t k = 0; k < coarse.series[i].bytes.size(); ++k) {
        ByteCount sum = 0;
        for (std::size_t j = 5 * i; j < std::min(5 * i + 5, fine.series.size()); ++j) {
          sum += fine.series[j].bytes[k];
        }
        EXPECT_EQ(coarse.series[i].bytes[k], sum)
            << StrategyName(strategy) << " bucket " << i << " kind " << k;
      }
    }
    EXPECT_EQ(coarse.finished, fine.finished);
    EXPECT_EQ(coarse.migration.resumed, fine.migration.resumed);
  }
}

}  // namespace
}  // namespace accent
