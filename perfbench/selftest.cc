// Self-tests for the benchmark's own helpers. Run with `perfbench --selftest`
// (run.py does so before every measured run).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/yardstick.h"
#include "src/base/json.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void TestNearestRankPercentile() {
  // 1..100: the p-th nearest-rank percentile is p itself.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);  // unsorted on purpose
  }
  Expect(Percentile(hundred, 50.0) == 50.0, "p50 of 1..100 is 50");
  Expect(Percentile(hundred, 90.0) == 90.0, "p90 of 1..100 is 90");
  Expect(Percentile(hundred, 100.0) == 100.0, "p100 is the maximum");
  Expect(Percentile(hundred, 0.0) == 1.0, "p0 clamps to the minimum");
  Expect(Percentile({7.0}, 90.0) == 7.0, "one sample is every percentile");
  Expect(Percentile({}, 50.0) == 0.0, "no samples read as 0");
  // Nearest rank never interpolates: p50 of {1,2,3,4} is 2, not 2.5.
  Expect(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0) == 2.0, "p50 of 1..4 is 2");
  Expect(NearestRank(10, 90.0) == 9, "rank of p90 among 10 is 9");
  Expect(NearestRank(11, 90.0) == 10, "rank of p90 among 11 is 10");
}

void TestTenBeyondRule() {
  Expect(SamplesBeyond(100, 90.0) == 10, "100 samples leave 10 beyond p90");
  Expect(TailResolved(100, 90.0), "p90 of 100 samples is resolved");
  Expect(!TailResolved(99, 90.0), "p90 of 99 samples is not resolved");
  Expect(SamplesBeyond(77, 90.0) == 7, "77 samples leave 7 beyond p90");
  Expect(TailResolved(1000, 99.0), "p99 of 1000 samples is resolved");
  Expect(!TailResolved(500, 99.0), "p99 of 500 samples is not resolved");
  Expect(SamplesBeyond(0, 90.0) == 0, "no samples, none beyond");
}

void TestFailedFrac() {
  Tally tally;
  tally.Record(true);
  tally.Record(true);
  tally.Record(false);  // a fabricated failing unit
  tally.Record(true);
  Expect(tally.attempted == 4 && tally.failed == 1, "tally counts attempts and failures");
  Expect(tally.failed_frac() == 0.25, "one failure in four is 0.25");
  Expect(!tally.correct(), "a failing unit makes the run incorrect");
  Tally clean;
  clean.Record(true);
  Expect(clean.correct() && clean.failed_frac() == 0.0, "a clean run is correct");
  Expect(!Tally{}.correct(), "a run that attempted nothing is not correct");
}

void TestSchema() {
  Expect(CheckSchema(EndToEndMetrics()).empty(), "end-to-end schema is well formed");
  Expect(CheckSchema(PerLayerMetrics()).empty(), "per-layer schema is well formed");
  Expect(!CheckSchema({{"x", "", "lower"}}).empty(), "a metric without unit is rejected");
  Expect(!CheckSchema({{"x", "s", "faster"}}).empty(), "a metric without direction is rejected");
  Expect(!CheckSchema({{"", "s", "lower"}}).empty(), "a metric without name is rejected");
  Expect(!CheckSchema({{"x", "s", "lower"}, {"x", "ms", "lower"}}).empty(),
         "a repeated name is rejected");

  // The result line holds exactly the schema's metrics, each with a unit.
  MetricSet set;
  for (const MetricDef& def : EndToEndMetrics()) {
    set.Set(def.name, 1.5);
  }
  set.Set("not_in_schema", 9.0);
  Tally tally;
  tally.Record(true);
  const accent::Json line =
      accent::Json::Parse(set.ResultLine(EndToEndMetrics(), tally.correct(), tally));
  Expect(line.AsObject().size() == 4, "result line has exactly four keys");
  Expect(line.Get("correct").AsBool(), "result line carries correct");
  Expect(line.Get("attempted").AsUint64() == 1 && line.Get("failed").AsUint64() == 0,
         "result line carries attempted and failed");
  const accent::Json::Object& metrics = line.Get("metrics").AsObject();
  Expect(metrics.size() == EndToEndMetrics().size(), "result line holds only schema metrics");
  for (const MetricDef& def : EndToEndMetrics()) {
    const accent::Json* entry = line.Get("metrics").Find(def.name);
    Expect(entry != nullptr && entry->Get("unit").AsString() == def.unit &&
               entry->Get("value").AsDouble() == 1.5,
           "every metric is printed with its unit and value");
  }
  Expect(MetricSet{}.Get("never_set") == 0.0, "a metric never set reads 0");
}

void TestSpans() {
  SpanRecorder recorder(true);
  {
    SpanRecorder::Scope outer(recorder, "outer", 7);
    { SpanRecorder::Scope inner(recorder, "inner", 7); }
    { SpanRecorder::Scope inner(recorder, "inner", 7); }
  }
  const auto& spans = recorder.spans();
  Expect(spans.size() == 3, "three spans recorded");
  Expect(spans[0].parent == SpanRecorder::kNoSpan && spans[1].parent == 0 &&
             spans[2].parent == 0,
         "children point at their parent");
  Expect(spans[1].unit == 7, "spans carry their unit id");
  const auto totals = recorder.Totals();
  const double outer_total = totals.at("outer").total_ns;
  const double inner_total = totals.at("inner").total_ns;
  Expect(totals.at("inner").count == 2, "span counts per name");
  Expect(std::fabs(totals.at("outer").self_ns - (outer_total - inner_total)) < 1e-6,
         "self time is duration minus child coverage");
  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "x", 0); }
  Expect(off.spans().empty(), "a disabled recorder records nothing");
}

void TestYardstick() {
  Expect(RunYardstick().checksum == kYardstickChecksum, "a yardstick pass reproduces its checksum");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestNearestRankPercentile();
  TestTenBeyondRule();
  TestFailedFrac();
  TestSchema();
  TestSpans();
  TestYardstick();
  return failures;
}

}  // namespace perfbench
