// Metrics registry: counter/histogram aggregation, merge associativity,
// canonical JSON round-trips, the trial fold, and the text-table
// formatting helpers the bench binaries are built on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/experiments/metrics_fold.h"
#include "src/experiments/sweep.h"
#include "src/metrics/registry.h"
#include "src/metrics/table.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

const std::vector<double> kBounds = {1.0, 10.0, 100.0};

TEST(MetricsRegistry, CounterAccumulates) {
  MetricsRegistry registry;
  registry.Counter("messages").Add(3);
  registry.Counter("messages").Increment();
  EXPECT_EQ(registry.Counter("messages").value, 4u);

  ASSERT_NE(registry.FindCounter("messages"), nullptr);
  EXPECT_EQ(registry.FindCounter("messages")->value, 4u);
  EXPECT_EQ(registry.FindCounter("absent"), nullptr);
}

TEST(MetricsRegistry, HistogramBucketsAndStats) {
  MetricsRegistry registry;
  MetricHistogram& h = registry.Histogram("latency", kBounds);
  h.Observe(0.5);    // bucket 0 (<= 1.0)
  h.Observe(1.0);    // bucket 0 (inclusive upper bound)
  h.Observe(7.0);    // bucket 1
  h.Observe(250.0);  // overflow bucket

  ASSERT_EQ(h.counts.size(), kBounds.size() + 1);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 0u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 258.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 250.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 258.5 / 4.0);
}

TEST(MetricsRegistry, MergeIsAssociativeWithFold) {
  const std::vector<MechTrial> trials =
      RunMechTrials({{.strategy = TransferStrategy::kPureIou}, {}}, 1);
  const MechTrial& iou = trials[0];
  const MechTrial& copy = trials[1];

  // Folding both trials into one registry ...
  MetricsRegistry combined;
  FoldTrialMetrics(iou, &combined);
  FoldTrialMetrics(copy, &combined);

  // ... equals merging two per-trial registries (what a parallel sweep
  // does after its barrier).
  MetricsRegistry left, right;
  FoldTrialMetrics(iou, &left);
  FoldTrialMetrics(copy, &right);
  left.Merge(right);

  EXPECT_EQ(combined.ToJson().Dump(), left.ToJson().Dump());
  EXPECT_EQ(left.Counter("trials").value, 2u);
  EXPECT_GT(left.Counter("bytes.total").value, 0u);
  ASSERT_NE(left.FindHistogram("downtime_seconds"), nullptr);
  EXPECT_EQ(left.FindHistogram("downtime_seconds")->count, 2u);
}

TEST(MetricsRegistry, MergeHandlesEmptyAndMinMax) {
  MetricsRegistry a;
  a.Histogram("h", kBounds).Observe(5.0);
  MetricsRegistry b;
  b.Histogram("h", kBounds).Observe(0.25);
  b.Histogram("h", kBounds).Observe(500.0);
  b.Counter("only_in_b").Add(7);

  a.Merge(b);
  const MetricHistogram* h = a.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->min, 0.25);
  EXPECT_DOUBLE_EQ(h->max, 500.0);
  EXPECT_EQ(a.Counter("only_in_b").value, 7u);

  // Merging an empty registry is the identity.
  const std::string before = a.ToJson().Dump();
  a.Merge(MetricsRegistry{});
  EXPECT_EQ(a.ToJson().Dump(), before);
}

TEST(MetricsRegistry, JsonRoundTrip) {
  MetricsRegistry registry;
  registry.Counter("messages").Add(42);
  registry.Histogram("latency", kBounds).Observe(2.5);
  registry.Histogram("latency", kBounds).Observe(1000.0);

  const Json json = registry.ToJson();
  const MetricsRegistry restored = MetricsRegistry::FromJson(json);
  EXPECT_EQ(restored.ToJson().Dump(), json.Dump());

  // Canonical writer: equal registries dump byte-identical text even when
  // built in a different order.
  MetricsRegistry reordered;
  reordered.Histogram("latency", kBounds).Observe(1000.0);
  reordered.Histogram("latency", kBounds).Observe(2.5);
  reordered.Counter("messages").Add(42);
  EXPECT_EQ(reordered.ToJson().Dump(), json.Dump());
}

TEST(MetricsRegistry, TrialSummaryCarriesTableFields) {
  const MechTrial trial = RunMechTrials(
      {{.workload = "Lisp-Del", .strategy = TransferStrategy::kResidentSet, .prefetch = 1}},
      1)[0];
  const MechRun& run = trial.run;
  const WorkloadSpec& spec = WorkloadByName("Lisp-Del");
  const Json row = PaperRowToJson(trial);

  EXPECT_EQ(row.Get("workload").AsString(), "Lisp-Del");
  EXPECT_EQ(row.Get("strategy").AsString(), "resident-set");
  EXPECT_EQ(row.Get("spec_resident_bytes").AsUint64(), spec.resident_bytes);
  EXPECT_EQ(row.Get("downtime_us").AsInt64(), run.hop1.Downtime().count());
  EXPECT_EQ(row.Get("rimas_transfer_us").AsInt64(), run.hop1.RimasTransferTime().count());
  EXPECT_DOUBLE_EQ(row.Get("frac_real_transferred").AsDouble(),
                   static_cast<double>(RealBytesTransferred(trial.spec, run)) /
                       static_cast<double>(spec.real_bytes));
  EXPECT_EQ(row.Get("transfer_plus_exec_us").AsInt64(), run.TransferPlusExec().count());
  EXPECT_GT(run.dest_pager.prefetched_pages, 0u);
  EXPECT_EQ(row.Get("dest_prefetched_pages").AsUint64(), run.dest_pager.prefetched_pages);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable table({"Process", "Bytes"});
  table.AddRow({"Minprog", "142,336"});
  table.AddRow({"Chess", "195,584"});
  EXPECT_EQ(table.rows(), 2u);

  const std::string text = table.ToString();
  EXPECT_NE(text.find("Process"), std::string::npos);
  EXPECT_NE(text.find("142,336"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TextTable, FormatHelpers) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatSeconds(2.789), "2.79");
  EXPECT_EQ(FormatSeconds(Sec(0.16)), "0.16");
  EXPECT_EQ(FormatSeconds(157.04, 1), "157.0");
  EXPECT_EQ(FormatPercent(0.569), "56.9%");
  EXPECT_EQ(FormatPercent(0.00005, 3), "0.005%");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace accent
