// Measurement helpers shared by the benchmark binary and its self-tests:
// nearest-rank percentiles, unit accounting, host-time spans, the metric
// schema and the one-line result record.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- statistics --------------------------------------------------------------

// 1-based nearest rank of the p-th percentile among n samples:
// ceil(p/100 * n), clamped to [1, n]. Precondition: n > 0.
std::size_t NearestRank(std::size_t n, double p);

// Nearest-rank percentile of `samples` (copied and sorted). 0 when empty.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

// Samples strictly above the p-th percentile's rank.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

// A tail percentile is only reported as resolved with at least ten samples
// beyond it.
inline bool TailResolved(std::size_t n, double p) { return SamplesBeyond(n, p) >= 10; }

// --- unit accounting -----------------------------------------------------------

// Counts units attempted and units that failed their correctness check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
  // A run is correct only if it attempted something and nothing failed.
  bool correct() const { return attempted > 0 && failed == 0; }
};

// --- host clock and spans ------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// In-memory host-time spans. Each span has a name, start, end, parent and
// the unit it belongs to; nothing is written until WriteJson. A disabled
// recorder records nothing and costs one branch per span.
class SpanRecorder {
 public:
  static constexpr std::int64_t kNoSpan = -1;

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span under the innermost open span; returns its id.
  std::int64_t Begin(const char* name, std::uint64_t unit);
  void End(std::int64_t id);

  // RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t unit)
        : recorder_(recorder), id_(recorder.Begin(name, unit)) {}
    ~Scope() { recorder_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::int64_t id_;
  };

  struct Span {
    std::string name;
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::int64_t parent = kNoSpan;
    std::uint64_t unit = 0;
  };
  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: count, total and self time (duration minus the time its
  // direct children cover), in nanoseconds.
  struct NameTotals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, NameTotals> Totals() const;

  // Writes {"spans":[{name,start_ns,end_ns,parent,unit,self_ns}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  double NowNs() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// --- metric schema -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

// End-to-end metrics (printed with --trace 0) and per-layer metrics (printed
// with --trace 1). Every workload prints every metric of its table.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// Empty when every metric has a well-formed name, a unit and a direction,
// and no name repeats; otherwise the first problem found.
std::string CheckSchema(const std::vector<MetricDef>& defs);

// Metric values by name, rendered against a schema. A metric that was never
// set reads 0: the workload did not reach that layer.
class MetricSet {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  const std::map<std::string, double>& values() const { return values_; }

  // The result line: {"attempted","correct","failed","metrics":{name:{unit,value}}}
  // holding exactly the metrics of `defs`.
  std::string ResultLine(const std::vector<MetricDef>& defs, bool correct,
                         const Tally& tally) const;

 private:
  std::map<std::string, double> values_;
};

// Runs the helper self-tests; prints each failure to stderr and returns the
// failure count.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
