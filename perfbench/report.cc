#include "perfbench/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>

#include "src/base/json.h"

namespace perfbench {

std::size_t NearestRank(std::size_t n, double p) {
  const double exact = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t rank = exact < 1.0 ? 1 : static_cast<std::size_t>(exact);
  return std::min(rank, n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), p) - 1];
}

std::int64_t SpanRecorder::Begin(const char* name, std::uint64_t unit) {
  if (!enabled_) {
    return kNoSpan;
  }
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? kNoSpan : open_.back();
  span.unit = unit;
  spans_.push_back(std::move(span));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(std::int64_t id) {
  if (!enabled_ || id == kNoSpan) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  // Spans nest strictly (one thread, RAII scopes), so the closing span is
  // the innermost open one.
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

namespace {

// Children of one span run back to back on one thread and never overlap,
// so the time they cover is the sum of their durations.
std::vector<double> ChildCoverage(const std::vector<SpanRecorder::Span>& spans) {
  std::vector<double> covered(spans.size(), 0.0);
  for (const SpanRecorder::Span& span : spans) {
    if (span.parent != SpanRecorder::kNoSpan) {
      covered[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  const std::vector<double> covered = ChildCoverage(spans_);
  std::map<std::string, NameTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_ns - spans_[i].start_ns;
    NameTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - covered[i];
  }
  return totals;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<double> covered = ChildCoverage(spans_);
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    return false;
  }
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    accent::Json row = accent::Json::Object{};
    row["name"] = accent::Json(s.name);
    row["start_ns"] = accent::Json(s.start_ns);
    row["end_ns"] = accent::Json(s.end_ns);
    row["self_ns"] = accent::Json(s.end_ns - s.start_ns - covered[i]);
    row["parent"] = accent::Json(s.parent);
    row["unit"] = accent::Json(s.unit);
    out << row.Dump() << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.good();
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"wall_norm_s", "s", "lower"},
      {"unit_p50_norm_ms", "ms", "lower"},
      {"unit_p90_norm_ms", "ms", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // sim
      {"sim.dispatch_ns", "ns", "lower"},
      {"sim.events", "count", "lower"},
      {"sim.host_ns_per_event", "ns", "lower"},
      // netmsg
      {"netmsg.fragment_ns", "ns", "lower"},
      {"netmsg.messages", "count", "lower"},
      {"netmsg.busy_sim_s", "sim_s", "lower"},
      {"netmsg.retransmits", "count", "lower"},
      {"netmsg.acks", "count", "lower"},
      // vm (pager)
      {"pager.fault_ns.fillzero", "ns", "lower"},
      {"pager.fault_ns.disk", "ns", "lower"},
      {"pager.fault_ns.imaginary", "ns", "lower"},
      {"pager.fault_ns.cache_confirm", "ns", "lower"},
      {"pager.fault_ns.holder_pull", "ns", "lower"},
      {"pager.faults.imaginary", "count", "lower"},
      {"pager.faults.disk", "count", "lower"},
      {"pager.faults.fillzero", "count", "lower"},
      {"pager.faults.cow", "count", "lower"},
      {"pager.prefetch_useful_frac", "ratio", "higher"},
      // proc
      {"proc.excise_ns_per_page", "ns", "lower"},
      {"proc.insert_ns_per_page", "ns", "lower"},
      // migration (simulated time)
      {"migration.excise_ms", "sim_ms", "lower"},
      {"migration.transfer_ms", "sim_ms", "lower"},
      {"migration.insert_ms", "sim_ms", "lower"},
      {"migration.excise_amap_ms", "sim_ms", "lower"},
      {"migration.excise_rimas_ms", "sim_ms", "lower"},
      // base
      {"base.page_hash_ns.cold", "ns", "lower"},
      {"base.page_hash_ns.memo", "ns", "lower"},
      {"base.page_store_lookup_ns", "ns", "lower"},
      {"base.payload_allocs", "count", "lower"},
      {"base.page_bytes_copied", "bytes", "lower"},
      {"base.json_row_us", "us", "lower"},
      // net / page_service
      {"page_service.pages_served", "count", "higher"},
      // experiments (cluster)
      {"cluster.migrations_completed", "count", "higher"},
      {"cluster.pull_batches", "count", "lower"},
      {"cluster.pages_pulled", "count", "lower"},
      {"cluster.directive_fill_frac", "ratio", "higher"},
      // experiments (fuzz)
      {"fuzz.completed", "count", "higher"},
      {"fuzz.aborted", "count", "lower"},
      {"fuzz.terminal", "count", "lower"},
      {"fuzz.restored", "count", "higher"},
      {"fuzz.remigrations", "count", "higher"},
      // process
      {"process.user_s", "s", "lower"},
      {"process.sys_s", "s", "lower"},
      {"process.sys_frac", "ratio", "lower"},
      {"process.minor_faults", "count", "lower"},
      // trace
      {"trace.overhead_frac", "ratio", "lower"},
  };
  return defs;
}

namespace {

bool ValidChars(const char* text, const char* extra) {
  for (const char* c = text; *c != '\0'; ++c) {
    const bool alnum = (*c >= 'a' && *c <= 'z') || (*c >= 'A' && *c <= 'Z') ||
                       (*c >= '0' && *c <= '9');
    if (!alnum && std::strchr(extra, *c) == nullptr) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string CheckSchema(const std::vector<MetricDef>& defs) {
  std::set<std::string> seen;
  for (const MetricDef& def : defs) {
    const std::string name = def.name == nullptr ? "" : def.name;
    if (name.empty() || name.size() > 64 || !ValidChars(def.name, "_.-") ||
        !std::isalnum(static_cast<unsigned char>(name[0]))) {
      return "bad metric name '" + name + "'";
    }
    if (def.unit == nullptr || std::strlen(def.unit) == 0 || std::strlen(def.unit) > 16 ||
        !ValidChars(def.unit, "_/%.-")) {
      return "metric '" + name + "' has no valid unit";
    }
    if (def.better == nullptr ||
        (std::strcmp(def.better, "lower") != 0 && std::strcmp(def.better, "higher") != 0)) {
      return "metric '" + name + "' has no direction";
    }
    if (!seen.insert(name).second) {
      return "metric '" + name + "' is listed twice";
    }
  }
  return "";
}

double MetricSet::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::string MetricSet::ResultLine(const std::vector<MetricDef>& defs, bool correct,
                                  const Tally& tally) const {
  accent::Json metrics = accent::Json::Object{};
  for (const MetricDef& def : defs) {
    accent::Json entry = accent::Json::Object{};
    entry["value"] = accent::Json(Get(def.name));
    entry["unit"] = accent::Json(def.unit);
    metrics[def.name] = std::move(entry);
  }
  accent::Json line = accent::Json::Object{};
  line["correct"] = accent::Json(correct);
  line["attempted"] = accent::Json(tally.attempted);
  line["failed"] = accent::Json(tally.failed);
  line["metrics"] = std::move(metrics);
  return line.Dump();
}

}  // namespace perfbench
