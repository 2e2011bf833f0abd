// Declared gates: the evaluator, the report writer's exit code, and the
// report check tools/check_bench runs — including three reports a
// whole-file key search accepts although a top-level key is missing,
// because the same key sits deeper in the file.
#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/gates.h"

namespace accent {
namespace {

Json Without(const Json& report, std::initializer_list<const char*> keys) {
  Json::Object object = report.AsObject();
  for (const char* key : keys) {
    object.erase(key);
  }
  return Json(std::move(object));
}

Json RawGate(Json value, const std::string& op, Json bound, bool ok) {
  Json gate;
  gate["name"] = Json("hung");
  gate["value"] = std::move(value);
  gate["op"] = Json(op);
  gate["bound"] = std::move(bound);
  gate["ok"] = Json(ok);
  return gate;
}

Json Report(const std::string& bench) {
  Json report;
  report["bench"] = Json(bench);
  report["schema_version"] = Json(1);
  report["hung"] = Json(0);
  return report;
}

std::vector<std::string> Check(const Json& report, const std::vector<std::string>& paths = {}) {
  return CheckReport(report.Dump(2), report.Get("bench").AsString(), paths);
}

TEST(Gates, EvaluatesEveryOp) {
  struct Case {
    Json value;
    const char* op;
    Json bound;
    bool holds;
  };
  const Case cases[] = {
      {Json(0), "==", Json(0), true},         {Json(1), "==", Json(0), false},
      {Json(1), "!=", Json(0), true},         {Json(0), "!=", Json(0), false},
      {Json(1), "<", Json(2), true},          {Json(2), "<", Json(2), false},
      {Json(2), "<=", Json(2), true},         {Json(3), "<=", Json(2), false},
      {Json(3), ">", Json(2), true},          {Json(2), ">", Json(2), false},
      {Json(2), ">=", Json(2), true},         {Json(1), ">=", Json(2), false},
      {Json(0.875), ">=", Json(0.5), true},   {Json(0.25), ">=", Json(0.5), false},
      {Json(std::uint64_t{7}), "==", Json(std::int64_t{7}), true},
      {Json(true), "==", Json(true), true},   {Json(false), "==", Json(true), false},
      {Json(true), "==", Json(1), true},      {Json(false), "==", Json(0), true},
      {Json(true), ">", Json(false), true},   {Json(true), "!=", Json(false), true},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(EvalGate(c.value, c.op, c.bound), c.holds)
        << c.value.Dump() << ' ' << c.op << ' ' << c.bound.Dump();
  }
  EXPECT_FALSE(EvalGate(Json(0), "=~", Json(0)).has_value());
  EXPECT_FALSE(EvalGate(Json("0"), "==", Json(0)).has_value());
  EXPECT_FALSE(EvalGate(Json(0), "==", Json()).has_value());
}

TEST(Gates, AddGateStoresTheVerdict) {
  Json report = Report("failure_matrix");
  AddGate(&report, "hung", 0, "==", 0);
  AddGate(&report, "b_crash_survived", false, "==", true);
  const Json::Array& gates = report.Get("gates").AsArray();
  ASSERT_EQ(gates.size(), 2u);
  EXPECT_EQ(gates[0].Dump(), R"({"bound":0,"name":"hung","ok":true,"op":"==","value":0})");
  EXPECT_FALSE(gates[1].Get("ok").AsBool());
  EXPECT_EQ(Check(report), std::vector<std::string>{"gate failed: b_crash_survived: false == true"});
}

TEST(Gates, WriteReportFailsOnlyOnAFailingGate) {
  const std::string path = testing::TempDir() + "gates_test_report.json";
  Json report = Report("sweep");
  AddGate(&report, "trial_count", 77, ">", 0);
  AddGate(&report, "origin_offload_ratio", 0.875, ">=", 0.5);
  EXPECT_EQ(WriteReport(report, path), 0);
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  Json written;
  ASSERT_TRUE(Json::TryParse(text.str(), &written));
  EXPECT_EQ(written.Dump(), report.Dump());

  AddGate(&report, "hung", 1, "==", 0);
  EXPECT_EQ(WriteReport(report, path), 1);
}

TEST(Gates, CheckAcceptsAPassingReport) {
  Json report = Report("failure_matrix");
  AddGate(&report, "hung", 0, "==", 0);
  EXPECT_TRUE(Check(report, {"hung"}).empty());
}

TEST(Gates, CheckRejectsAFailingGate) {
  Json report = Report("failure_matrix");
  AddGate(&report, "hung", 3, "==", 0);
  EXPECT_EQ(Check(report), std::vector<std::string>{"gate failed: hung: 3 == 0"});
}

TEST(Gates, CheckRejectsAStoredOkThatDisagrees) {
  Json report = Report("failure_matrix");
  report["gates"].Append(RawGate(Json(3), "==", Json(0), /*ok=*/true));
  ASSERT_EQ(Check(report).size(), 1u);
  EXPECT_NE(Check(report)[0].find("stores ok=true but recomputes false"), std::string::npos);
}

TEST(Gates, CheckRejectsAnUnknownOpOrAMalformedGate) {
  Json report = Report("failure_matrix");
  report["gates"].Append(RawGate(Json(0), "=~", Json(0), /*ok=*/true));
  EXPECT_EQ(Check(report), std::vector<std::string>{"gate cannot be evaluated: hung: 0 =~ 0"});

  Json malformed = Report("failure_matrix");
  malformed["gates"].Append(Json("hung == 0"));
  EXPECT_EQ(Check(malformed), std::vector<std::string>{"malformed gate \"hung == 0\""});
}

TEST(Gates, CheckRejectsMissingOrEmptyGates) {
  const std::vector<std::string> expected = {"gates missing or empty"};
  EXPECT_EQ(Check(Report("failure_matrix")), expected);
  Json report = Report("failure_matrix");
  report["gates"] = Json::Array{};
  EXPECT_EQ(Check(report), expected);
}

TEST(Gates, CheckRejectsWrongBenchAndMissingSchemaVersion) {
  Json report = Report("failure_matrix");
  AddGate(&report, "hung", 0, "==", 0);
  EXPECT_EQ(CheckReport(report.Dump(2), "checkpoint_matrix", {}),
            std::vector<std::string>{"bench is not \"checkpoint_matrix\""});
  EXPECT_EQ(Check(Without(report, {"schema_version"})),
            std::vector<std::string>{"missing schema_version"});
}

TEST(Gates, CheckRejectsTheDumpOfANonFiniteNumber) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    Json report = Report("dedup_sweep");
    AddGate(&report, "hung", 0, "==", 0);
    report["origin_offload_ratio"] = Json(bad);
    EXPECT_EQ(Check(report).size(), 1u) << report.Get("origin_offload_ratio").Dump();
  }
}

TEST(Gates, PathsStepThroughRegistryNamesAndArrays) {
  Json report = Report("sweep");
  AddGate(&report, "trial_count", 1, ">", 0);
  report["metrics"]["counters"]["faults.iou_pulls"] = Json(7);
  Json cell;
  cell["downtime_s"] = Json(1.5);
  report["cells"].Append(cell);
  report["cells"].Append(cell);
  EXPECT_TRUE(Check(report, {"metrics/counters/faults.iou_pulls", "cells/downtime_s"}).empty());

  EXPECT_EQ(Check(report, {"metrics/counters/faults"}),
            std::vector<std::string>{"missing metrics/counters/faults"});
  report["cells"].Append(Json(Json::Object{}));
  EXPECT_EQ(Check(report, {"cells/downtime_s"}),
            std::vector<std::string>{"missing cells/downtime_s"});
  report["empty"] = Json::Array{};
  EXPECT_EQ(Check(report, {"empty/x"}), std::vector<std::string>{"missing empty/x"});
}

// The three blind spots: each report is complete and passes, and loses only
// top-level keys that also appear deeper in the file, so a search of the
// whole file still finds every key.

TEST(Gates, CheckRejectsASweepWithoutTopLevelTrials) {
  Json sweep = Report("sweep");
  sweep["schema_version"] = Json(2);
  sweep["seed"] = Json(42);
  sweep["trial_count"] = Json(1);
  sweep["workloads"].Append(Json("Minprog"));
  sweep["rs_calibrated"] = Json::Array{};
  sweep["rs_zero_scan_per_mb_us"] = Json(3000);
  Json& counters = sweep["metrics"]["counters"];
  for (const char* name : {"trials", "faults.iou_pulls", "bytes.total", "messages.total"}) {
    counters[name] = Json(1);
  }
  sweep["metrics"]["histograms"]["downtime_seconds"]["count"] = Json(1);
  sweep["metrics"]["histograms"]["rimas_transfer_seconds"]["count"] = Json(1);
  sweep["trials"].Append(Json(Json::Object{}));
  AddGate(&sweep, "trial_count", 1, ">", 0);

  EXPECT_TRUE(Check(sweep, {"trials"}).empty());
  EXPECT_EQ(Check(Without(sweep, {"trials"}), {"trials"}),
            std::vector<std::string>{"missing trials"});
}

TEST(Gates, CheckRejectsAPreCopyReportWithoutTopLevelCompleted) {
  Json precopy = Report("precopy");
  precopy["seed"] = Json(42);
  precopy["trial_count"] = Json(1);
  precopy["completed"] = Json(1);
  precopy["downtime_wins"] = Json(2);
  precopy["downtime_win_ok"] = Json(true);
  precopy["bytes_ordering_ok"] = Json(true);
  precopy["slo_ok"] = Json(true);
  precopy["pareto"].Append(Json(Json::Object{}));
  Json cell;
  for (const char* key : {"completed", "slo_met"}) {
    cell[key] = Json(true);
  }
  for (const char* key : {"downtime_s", "page_bytes", "wws_pages", "predicted_downtime_s",
                          "rounds"}) {
    cell[key] = Json(1);
  }
  precopy["cells"].Append(cell);
  AddGate(&precopy, "hung", 0, "==", 0);
  AddGate(&precopy, "completed", 1, "==", 1);

  EXPECT_TRUE(Check(precopy, {"completed", "cells/completed"}).empty());
  EXPECT_EQ(Check(Without(precopy, {"completed"}), {"completed", "cells/completed"}),
            std::vector<std::string>{"missing completed"});
}

TEST(Gates, CheckRejectsADedupReportWithoutTopLevelRunKeys) {
  Json half;
  half["workload"] = Json("PM-Mid");
  half["seed"] = Json(42);
  half["repeats"] = Json(4);
  half["hosts"] = Json(4);
  for (const char* key : {"faulted_pages", "origin_payload_pages", "offloaded_pages",
                          "cache_hits", "cache_misses", "cache_insertions", "cache_evictions"}) {
    half[key] = Json(0);
  }
  half["rounds"].Append(Json(Json::Object{}));

  Json dedup = Report("dedup_sweep");
  for (const char* key : {"workload", "seed", "repeats", "hosts"}) {
    dedup[key] = half.Get(key);
  }
  dedup["origin_offload_ratio"] = Json(0.875);
  dedup["wire_bytes_cached"] = Json(100);
  dedup["wire_bytes_baseline"] = Json(200);
  dedup["wire_bytes_saved"] = Json(100);
  dedup["integrity_failures"] = Json(0);
  dedup["cached"] = half;
  dedup["baseline"] = half;
  dedup["metrics"]["counters"] = Json(Json::Object{});
  AddGate(&dedup, "origin_offload_ratio", 0.875, ">=", 0.5);
  AddGate(&dedup, "wire_bytes_cached", 100, "<", 200);

  const std::vector<std::string> paths = {"workload", "seed", "repeats", "hosts",
                                          "cached/workload", "baseline/workload"};
  EXPECT_TRUE(Check(dedup, paths).empty());
  EXPECT_EQ(Check(Without(dedup, {"workload", "seed", "repeats", "hosts"}), paths),
            (std::vector<std::string>{"missing workload", "missing seed", "missing repeats",
                                      "missing hosts"}));
}

}  // namespace
}  // namespace accent
