// render_results: turns BENCH_*.json into docs/RESULTS.md.
//
//   render_results [--out FILE] REPORT...
//   render_results --out docs/RESULTS.md build/BENCH_*.json
//
// Each REPORT is a BENCH_*.json file; its `bench` field places it in the
// document's fixed section order, whatever order the files come in.
// BENCH_sweep.json (from `run_all`) is required: it carries every number of
// the paper's section 4 — Tables 4-1 .. 4-5, Figures 4-1 .. 4-5, the section
// 4.3.3 fault latencies and the section 4.5 summary — rendered here in the
// paper's shapes with its published values alongside ours. This is their
// only renderer and the only copy of the paper's values. Every other report
// gets its own section, each ending in the report's gates table.
// The emitted file carries a template-version marker; the docs_check ctest
// compares it against --print-template-version to catch a stale RESULTS.md.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/metrics/table.h"

namespace accent {
namespace {

// Bump when the set of tables or their columns change, so a committed
// docs/RESULTS.md rendered by an older binary fails docs_check.
constexpr int kTemplateVersion = 11;

// -------------------------------------------------------------------------
// Paper constants (Zayas, SOSP 1987); a value of -1 renders as "(n/a)" —
// the paper does not report that cell.

struct PaperSizes {  // Table 4-1
  const char* name;
  double real, realz, total, pct_realz;
};
constexpr PaperSizes kPaperSizes[] = {
    {"Minprog", 142336, 187904, 330240, 56.9},
    {"Lisp-T", 2203136, 4225926144, 4228129280, 99.9},
    {"Lisp-Del", 2200064, 4225929216, 4228129280, 99.9},
    {"PM-Start", 449024, 501760, 950784, 52.8},
    {"PM-Mid", 446464, 466432, 912896, 51.1},
    {"PM-End", 492032, 398848, 890880, 44.8},
    {"Chess", 195584, 305152, 500736, 60.9},
};

struct PaperResident {  // Table 4-2
  const char* name;
  double rs_size, pct_real, pct_total;
};
constexpr PaperResident kPaperResident[] = {
    {"Minprog", 71680, 50.4, 21.7},  {"Lisp-T", 190464, 8.6, 0.005},
    {"Lisp-Del", 190464, 8.7, 0.005}, {"PM-Start", 132096, 29.4, 13.9},
    {"PM-Mid", 190976, 42.8, 20.9},  {"PM-End", 302080, 61.4, 33.9},
    {"Chess", 110080, 56.3, 22.0},
};

struct PaperAccessed {  // Table 4-3 (percent of address space accessed)
  const char* name;
  double iou_real, iou_total, rs_real, rs_total;
};
constexpr PaperAccessed kPaperAccessed[] = {
    {"Minprog", 8.6, 3.7, 50.4, 21.7}, {"Lisp-T", -1, -1, -1, -1},
    {"Lisp-Del", 16.5, 0.002, 17.4, 0.009}, {"PM-Start", 58.0, 27.4, 76.0, 35.9},
    {"PM-Mid", 51.5, 25.2, -1, -1},    {"PM-End", 26.9, 14.8, 72.5, 40.1},
    {"Chess", 35.6, 13.9, 66.0, 25.8},
};

struct PaperExcision {  // Table 4-4
  const char* name;
  double amap, rimas, overall;
};
constexpr PaperExcision kPaperExcision[] = {
    {"Minprog", 0.37, 0.36, 0.82}, {"Lisp-T", 2.12, 0.59, 2.79},
    {"Lisp-Del", 2.46, 0.73, 3.38}, {"PM-Start", 0.98, 0.63, 1.67},
    {"PM-Mid", 1.01, 0.68, 1.74},  {"PM-End", 1.40, 0.94, 2.45},
    {"Chess", 0.37, 0.43, 1.00},
};

struct PaperTransfer {  // Table 4-5
  const char* name;
  double iou, rs, copy;
};
constexpr PaperTransfer kPaperTransfer[] = {
    {"Minprog", 0.16, 5.0, 8.5},   {"Lisp-T", 0.16, 25.8, 157.0},
    {"Lisp-Del", 0.17, 25.8, 168.5}, {"PM-Start", 0.15, 9.0, 30.8},
    {"PM-Mid", 0.16, 13.0, 28.1},  {"PM-End", 0.19, 20.5, 31.0},
    {"Chess", 0.21, 7.7, 11.7},
};

// -------------------------------------------------------------------------
// Markdown table builder.

class MdTable {
 public:
  explicit MdTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  std::string ToString() const {
    std::ostringstream out;
    auto emit = [&out](const std::vector<std::string>& cells) {
      out << '|';
      for (const std::string& cell : cells) {
        out << ' ' << cell << " |";
      }
      out << '\n';
    };
    emit(headers_);
    out << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      out << (c == 0 ? " --- |" : " ---: |");
    }
    out << '\n';
    for (const auto& row : rows_) {
      emit(row);
    }
    return out.str();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Paper(double value, int precision = 2) {
  if (value < 0) {
    return "(n/a)";
  }
  return "(" + FormatDouble(value, precision) + ")";
}

std::string PaperBytes(double value) {
  if (value < 0) {
    return "(n/a)";
  }
  return "(" + FormatWithCommas(static_cast<std::uint64_t>(value)) + ")";
}

// `value` is already a percentage (the paper prints percentages directly).
std::string PaperPercent(double value, int precision = 1) {
  if (value < 0) {
    return "(n/a)";
  }
  return "(" + FormatDouble(value, precision) + "%)";
}

// -------------------------------------------------------------------------
// Sweep-summary access.

// Trials are keyed by (workload, strategy, prefetch); only the
// iou_caching=true rows belong to the paper grid proper.
class SweepIndex {
 public:
  explicit SweepIndex(const Json& sweep) : sweep_(sweep) {
    for (const Json& trial : sweep.Get("trials").AsArray()) {
      if (!trial.Get("iou_caching").AsBool()) {
        continue;
      }
      const std::string key = Key(trial.Get("workload").AsString(),
                                  trial.Get("strategy").AsString(),
                                  trial.Get("prefetch").AsUint64());
      trials_.emplace(key, &trial);
    }
  }

  // Aborts if the trial is missing: every table below draws from the fixed
  // 77-trial grid, so absence means BENCH_sweep.json is malformed.
  const Json& Find(const std::string& workload, const std::string& strategy,
                   std::uint64_t prefetch = 0) const {
    auto it = trials_.find(Key(workload, strategy, prefetch));
    if (it == trials_.end()) {
      std::fprintf(stderr, "render_results: sweep summary is missing trial %s/%s/pf%llu\n",
                   workload.c_str(), strategy.c_str(),
                   static_cast<unsigned long long>(prefetch));
      std::exit(1);
    }
    return *it->second;
  }

  const Json& sweep() const { return sweep_; }

  // The grid's workloads in run order (the paper's order).
  std::vector<std::string> workloads() const {
    std::vector<std::string> names;
    for (const Json& name : sweep_.Get("workloads").AsArray()) {
      names.push_back(name.AsString());
    }
    return names;
  }

 private:
  static std::string Key(const std::string& workload, const std::string& strategy,
                         std::uint64_t prefetch) {
    return workload + "|" + strategy + "|" + std::to_string(prefetch);
  }

  const Json& sweep_;
  std::map<std::string, const Json*> trials_;
};

double Seconds(const Json& trial, const char* key) {
  return trial.Get(key).AsDouble() / 1e6;
}

// -------------------------------------------------------------------------
// Sections.

// The pass rules the report declares (src/metrics/gates.h), as stored in
// it; tools/check_bench recomputes each ok.
void RenderGates(const Json& report, std::ostream& out) {
  auto cell = [](const Json& v) {
    return v.is_number() && !v.is_integer() ? FormatDouble(v.AsDouble(), 3) : v.Dump();
  };
  MdTable table({"Gate", "Value", "Op", "Bound", "Ok"});
  for (const Json& gate : report.Get("gates").AsArray()) {
    table.AddRow({"`" + gate.Get("name").AsString() + "`", cell(gate.Get("value")),
                  "`" + gate.Get("op").AsString() + "`", cell(gate.Get("bound")),
                  gate.Get("ok").AsBool() ? "yes" : "**NO**"});
  }
  out << "Gates:\n\n" << table.ToString() << '\n';
}

void RenderTable41(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-1: Address space sizes in bytes\n\n"
      << "Real memory (touched, backed pages), real-but-zero (allocated, "
         "never-written fill-zero regions) and their sum, per representative "
         "process. Paper values in parentheses.\n\n";
  MdTable table({"Process", "Real", "(paper)", "RealZ", "(paper)", "Total", "(paper)",
                 "%RealZ", "(paper)"});
  for (const PaperSizes& row : kPaperSizes) {
    const Json& trial = index.Find(row.name, "pure-IOU");
    const std::uint64_t real = trial.Get("spec_real_bytes").AsUint64();
    const std::uint64_t zero = trial.Get("spec_zero_bytes").AsUint64();
    const std::uint64_t total = trial.Get("spec_total_bytes").AsUint64();
    table.AddRow({row.name, FormatWithCommas(real), PaperBytes(row.real),
                  FormatWithCommas(zero), PaperBytes(row.realz), FormatWithCommas(total),
                  PaperBytes(row.total),
                  FormatPercent(static_cast<double>(zero) / static_cast<double>(total)),
                  PaperPercent(row.pct_realz)});
  }
  out << table.ToString() << '\n';
}

void RenderTable42(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-2: Resident set sizes\n\n"
      << "Pages resident in physical memory at migration time. Paper values in "
         "parentheses.\n\n";
  MdTable table({"Process", "RS bytes", "(paper)", "% of Real", "(paper)", "% of Total",
                 "(paper)"});
  for (const PaperResident& row : kPaperResident) {
    const Json& trial = index.Find(row.name, "resident-set");
    const std::uint64_t rs = trial.Get("spec_resident_bytes").AsUint64();
    const double real = trial.Get("spec_real_bytes").AsDouble();
    const double total = trial.Get("spec_total_bytes").AsDouble();
    table.AddRow({row.name, FormatWithCommas(rs), PaperBytes(row.rs_size),
                  FormatPercent(rs / real), PaperPercent(row.pct_real),
                  FormatPercent(rs / total, 3), PaperPercent(row.pct_total, 3)});
  }
  out << table.ToString() << '\n';
}

void RenderTable43(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-3: Percent of address space accessed after migration\n\n"
      << "Fraction of the source address space the destination actually pulled "
         "over the wire, pure-IOU vs resident-set. Paper values in parentheses; "
         "(n/a) where the paper does not report the cell.\n\n";
  MdTable table({"Process", "IOU %Real", "(paper)", "IOU %Total", "(paper)", "RS %Real",
                 "(paper)", "RS %Total", "(paper)"});
  for (const PaperAccessed& row : kPaperAccessed) {
    const Json& iou = index.Find(row.name, "pure-IOU");
    const Json& rs = index.Find(row.name, "resident-set");
    table.AddRow({row.name, FormatPercent(iou.Get("frac_real_transferred").AsDouble()),
                  PaperPercent(row.iou_real),
                  FormatPercent(iou.Get("frac_total_transferred").AsDouble(), 3),
                  PaperPercent(row.iou_total, 3),
                  FormatPercent(rs.Get("frac_real_transferred").AsDouble()),
                  PaperPercent(row.rs_real),
                  FormatPercent(rs.Get("frac_total_transferred").AsDouble(), 3),
                  PaperPercent(row.rs_total, 3)});
  }
  out << table.ToString() << '\n';
}

void RenderTable44(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-4: Process excision times in seconds\n\n"
      << "AMap construction + RIMAS collapse + packaging, measured from the "
         "ExciseProcess trap (pure-copy, prefetch 0). Paper values in "
         "parentheses; section 4.3.1 reports insertion at 0.263 s (Minprog) to "
         "0.853 s (Lisp-Del).\n\n";
  MdTable table({"Process", "AMap", "(paper)", "RIMAS", "(paper)", "Overall", "(paper)",
                 "Insert"});
  for (const PaperExcision& row : kPaperExcision) {
    const Json& trial = index.Find(row.name, "pure-copy");
    table.AddRow({row.name, FormatSeconds(Seconds(trial, "excise_amap_us")),
                  Paper(row.amap), FormatSeconds(Seconds(trial, "excise_rimas_us")),
                  Paper(row.rimas), FormatSeconds(Seconds(trial, "excise_overall_us")),
                  Paper(row.overall), FormatSeconds(Seconds(trial, "insert_time_us"))});
  }
  out << table.ToString() << '\n';
}

void RenderTable45(const SweepIndex& index, std::ostream& out) {
  out << "## Table 4-5: Address space transfer times in seconds\n\n"
      << "Time from handing the RIMAS message to the IPC system until its "
         "arrival at the destination, per strategy (prefetch 0). Paper values "
         "in parentheses. `RS-cal` re-runs the resident-set trials with the "
         "zero-fill map-walk charge (`costs.rs_zero_scan_per_mb`) the paper's "
         "measured column carries — Lisp validates its whole 4 GB heap at "
         "birth, so partitioning its RIMAS walks ~4 GB of RealZero map.\n\n";

  // Calibrated resident-set rows (fresh trials, not the grid).
  std::map<std::string, double> rs_cal;
  for (const Json& row : index.sweep().Get("rs_calibrated").AsArray()) {
    rs_cal[row.Get("workload").AsString()] = row.Get("rimas_transfer_us").AsDouble() / 1e6;
  }

  MdTable table({"Process", "Pure-IOU", "(paper)", "RS", "RS-cal", "(paper)", "Copy",
                 "(paper)"});
  double worst_ratio = 0;
  const char* worst_name = "";
  for (const PaperTransfer& row : kPaperTransfer) {
    const Json& iou = index.Find(row.name, "pure-IOU");
    const Json& rs = index.Find(row.name, "resident-set");
    const Json& copy = index.Find(row.name, "pure-copy");
    table.AddRow({row.name, FormatSeconds(Seconds(iou, "rimas_transfer_us")),
                  Paper(row.iou), FormatSeconds(Seconds(rs, "rimas_transfer_us")),
                  FormatSeconds(rs_cal.at(row.name), 1),
                  Paper(row.rs, 1), FormatSeconds(Seconds(copy, "rimas_transfer_us"), 1),
                  Paper(row.copy, 1)});
    const double ratio = Seconds(copy, "rimas_transfer_us") / Seconds(iou, "rimas_transfer_us");
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_name = row.name;
    }
  }
  out << table.ToString() << '\n';
  out << "Largest copy/IOU ratio: " << worst_name << " at " << FormatDouble(worst_ratio, 0)
      << "x (paper: Lisp-Del, ~1000x).\n\n";
}

// -------------------------------------------------------------------------
// Figures 4-1 .. 4-5 and the section 4.3.3 / 4.5 summary. The paper charts
// the figures without numbers, so their paper values are its prose anchors.

// The paper's prefetch axis: pages prefetched per imaginary fault.
constexpr std::uint64_t kPrefetchDepths[] = {0, 1, 3, 7, 15};

// One cell of a strategy grid: `trial` formatted against its workload's
// pure-copy trial.
using GridCell = std::function<std::string(const Json& trial, const Json& copy)>;

// Figures 4-1 .. 4-4 share this shape: a row per workload with the
// pure-copy cell, then pure-IOU and resident-set at every prefetch depth.
std::string StrategyGrid(const SweepIndex& index, const GridCell& cell) {
  MdTable table({"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF1",
                 "PF3", "PF7", "PF15"});
  for (const std::string& name : index.workloads()) {
    const Json& copy = index.Find(name, "pure-copy");
    std::vector<std::string> row{name, cell(copy, copy)};
    for (const char* strategy : {"pure-IOU", "resident-set"}) {
      for (std::uint64_t prefetch : kPrefetchDepths) {
        row.push_back(cell(index.Find(name, strategy, prefetch), copy));
      }
    }
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

// Mean over the workloads of 1 - pure-IOU PF0 / pure-copy, in percent.
double MeanIouSaving(const SweepIndex& index, double (*metric)(const Json&)) {
  const std::vector<std::string> names = index.workloads();
  double sum = 0;
  for (const std::string& name : names) {
    sum += 1.0 - metric(index.Find(name, "pure-IOU")) / metric(index.Find(name, "pure-copy"));
  }
  return 100.0 * sum / static_cast<double>(names.size());
}

double BytesTotal(const Json& trial) { return trial.Get("bytes_total").AsDouble(); }
double NetMsgBusy(const Json& trial) { return Seconds(trial, "netmsg_busy_us"); }

// Figure 4-2's metric: percent saved on transfer + remote execution.
double Speedup(const Json& trial, const Json& copy) {
  const double copy_total = Seconds(copy, "transfer_plus_exec_us");
  return 100.0 * (copy_total - Seconds(trial, "transfer_plus_exec_us")) / copy_total;
}

// printf into a string, for the figure lines whose layout is fixed-width.
template <typename... Args>
std::string Printf(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

void RenderFigure41(const SweepIndex& index, std::ostream& out) {
  out << "## Figure 4-1: Remote execution times in seconds\n\n"
      << "From the restart at the new host until remote execution completes: "
         "pure-copy, then pure-IOU and resident-set with 0/1/3/7/15 pages "
         "prefetched per imaginary fault.\n\n"
      << StrategyGrid(index, [](const Json& trial, const Json&) {
           return FormatSeconds(Seconds(trial, "remote_exec_us"));
         })
      << '\n';

  auto exec = [&index](const char* name, const char* strategy, std::uint64_t prefetch = 0) {
    return Seconds(index.Find(name, strategy, prefetch), "remote_exec_us");
  };
  const double chess_copy = exec("Chess", "pure-copy");
  MdTable anchors({"Anchor", "Ours", "(paper)"});
  anchors.AddRow({"Minprog pure-IOU slowdown",
                  FormatDouble(exec("Minprog", "pure-IOU") / exec("Minprog", "pure-copy"), 0) +
                      "x",
                  "(44x)"});
  anchors.AddRow({"Chess pure-IOU penalty",
                  FormatDouble(100.0 * (exec("Chess", "pure-IOU") - chess_copy) / chess_copy, 1) +
                      "%",
                  "(~3%)"});
  anchors.AddRow({"PM-Start pure-IOU, PF0 time / PF15 time",
                  FormatDouble(exec("PM-Start", "pure-IOU") / exec("PM-Start", "pure-IOU", 15), 2) +
                      "x",
                  "(up to 2x)"});
  out << anchors.ToString() << '\n';

  out << "Pure-IOU prefetch hit ratios (hits / prefetched pages), section "
         "4.3.3's prose:\n\n";
  MdTable hits({"Process", "PF1", "PF3", "PF7", "PF15", "(paper)"});
  const std::pair<const char*, const char*> paper_hits[] = {{"Lisp-Del", "(~40% -> ~20%)"},
                                                             {"PM-Start", "(~78%)"}};
  for (const auto& [name, paper] : paper_hits) {
    std::vector<std::string> row{name};
    for (std::uint64_t prefetch : {1, 3, 7, 15}) {
      const Json& trial = index.Find(name, "pure-IOU", prefetch);
      const double prefetched = trial.Get("dest_prefetched_pages").AsDouble();
      const double ratio =
          prefetched == 0 ? 0.0 : trial.Get("dest_prefetch_hits").AsDouble() / prefetched;
      row.push_back(FormatDouble(100.0 * ratio, 0) + "%");
    }
    row.push_back(paper);
    hits.AddRow(std::move(row));
  }
  out << hits.ToString() << '\n';
}

void RenderFigure42(const SweepIndex& index, std::ostream& out) {
  out << "## Figure 4-2: Percent migration speedup vs. pure-copy\n\n"
      << "Address-space transfer plus remote execution, compared to pure-copy "
         "(the Copy column, 0.0 by definition); positive is faster. Paper "
         "anchors: processes touching less than ~25% of RealMem win under "
         "pure-IOU; PF1 always helps; resident-set rarely pays its way; Chess is "
         "insensitive.\n\n"
      << StrategyGrid(index,
                      [](const Json& trial, const Json& copy) {
                        return FormatDouble(Speedup(trial, copy), 1);
                      })
      << '\n';

  out << "Touched fraction of RealMem against the pure-IOU PF0 outcome (paper: "
         "breakeven around 25% of RealMem; Chess drowned by longevity):\n\n";
  MdTable touched({"Process", "Touched", "IOU PF0 speedup"});
  for (const std::string& name : index.workloads()) {
    const Json& iou = index.Find(name, "pure-IOU");
    touched.AddRow({name, FormatPercent(iou.Get("frac_real_transferred").AsDouble()),
                    Printf("%+.1f%%", Speedup(iou, index.Find(name, "pure-copy")))});
  }
  out << touched.ToString() << '\n';
}

void RenderFigure43(const SweepIndex& index, std::ostream& out) {
  out << "## Figure 4-3: Bytes transferred per trial\n\n"
      << "All bytes exchanged between the hosts (context, fault traffic, "
         "control). Paper anchors: prefetch adds dead-weight bytes; resident-set "
         "cuts into the IOU savings.\n\n"
      << StrategyGrid(index, [](const Json& trial, const Json&) {
           return FormatWithCommas(trial.Get("bytes_total").AsUint64());
         })
      << '\n';
  out << "Average pure-IOU (PF0) byte savings vs pure-copy: "
      << FormatDouble(MeanIouSaving(index, BytesTotal), 1) << "% (paper: 58.2%).\n\n";
}

void RenderFigure44(const SweepIndex& index, std::ostream& out) {
  out << "## Figure 4-4: Message handling costs in seconds\n\n"
      << "NetMsgServer CPU busy time summed over both hosts. Paper anchors: PF1 "
         "dips slightly below PF0; larger prefetch climbs again (dead-weight "
         "pages, bigger replies). Pure-copy sends fewer messages but spends "
         "longer handling them: most of the pages it ships are never used at "
         "the remote site.\n\n"
      << StrategyGrid(index, [](const Json& trial, const Json&) {
           return FormatSeconds(Seconds(trial, "netmsg_busy_us"));
         })
      << '\n';
  out << "Average pure-IOU (PF0) handling-cost savings vs pure-copy: "
      << FormatDouble(MeanIouSaving(index, NetMsgBusy), 1) << "% (paper: 47.8%).\n\n";
}

void RenderFigure45(const SweepIndex& index, std::ostream& out) {
  const Json& figure = index.sweep().Get("figure_4_5");
  out << "## Figure 4-5: Byte transfer rates for Lisp-Del\n\n"
      << "Prefetch 0, from migration start to the final remote instruction; "
         "empty buckets are left out. `o` marks bytes supporting imaginary "
         "faults (the paper's white areas), `#` all other transfers (its black "
         "areas). Paper anchor: the pure-IOU trial finishes shortly after the "
         "pure-copy trial *begins* remote execution.\n\n";
  const double bucket = Seconds(figure, "bucket_us");
  double iou_finished = 0;
  for (const Json& series : figure.Get("series").AsArray()) {
    const std::string strategy = series.Get("strategy").AsString();
    if (strategy == "pure-IOU") {
      iou_finished = Seconds(series, "finished_us");
    }
    std::uint64_t peak = 1;
    for (const Json& b : series.Get("buckets").AsArray()) {
      peak = std::max(peak, b.Get("fault_bytes").AsUint64() + b.Get("other_bytes").AsUint64());
    }
    out << Printf("%s (bucket = %.1f s, trial ends at %.1f s):\n\n```\n", strategy.c_str(),
                  bucket, Seconds(series, "finished_us"))
        << Printf("%9s  %12s  %12s  rate\n", "t (s)", "fault B", "other B");
    for (const Json& b : series.Get("buckets").AsArray()) {
      const std::uint64_t fault = b.Get("fault_bytes").AsUint64();
      const std::uint64_t other = b.Get("other_bytes").AsUint64();
      if (fault + other == 0) {
        continue;
      }
      const auto width = [peak](std::uint64_t bytes) {
        return static_cast<std::size_t>(60.0 * static_cast<double>(bytes) /
                                        static_cast<double>(peak));
      };
      std::string chart(width(fault), 'o');
      chart.append(width(fault + other) - width(fault), '#');
      out << Printf("%9.1f  %12s  %12s  ", Seconds(b, "start_us"),
                    FormatWithCommas(fault).c_str(), FormatWithCommas(other).c_str())
          << chart << '\n';
    }
    out << "```\n\n";
  }
  out << Printf("Pure-IOU finished at %.1f s; pure-copy resumed execution at %.1f s.\n\n",
                iou_finished, Seconds(figure, "copy_resumed_us"));
}

// The smallest and largest `metric` over the workloads, each given its PF0
// pure-copy and pure-IOU trials.
struct Span {
  double min = 1e300, max = -1e300;
};
Span SpanOver(const SweepIndex& index,
              const std::function<double(const Json& copy, const Json& iou)>& metric) {
  Span span;
  for (const std::string& name : index.workloads()) {
    const double value = metric(index.Find(name, "pure-copy"), index.Find(name, "pure-IOU"));
    span.min = std::min(span.min, value);
    span.max = std::max(span.max, value);
  }
  return span;
}

void RenderSummary(const SweepIndex& index, std::ostream& out) {
  out << "## Sections 4.3.3 and 4.5: fault latencies and the summary\n\n"
      << "Section 4.5's claims recomputed from the grid (pure-IOU and pure-copy "
         "at PF0), then section 4.3.3's fault latencies from a lab on the "
         "two-host testbed that touches one fill-zero, one local-disk and one "
         "remote imaginary page, then the disk page again once resident. "
         "Paper values in parentheses.\n\n";

  auto copy_field = [](const char* key) {
    return [key](const Json& copy, const Json&) { return copy.Get(key).AsDouble(); };
  };
  auto copy_seconds = [](const char* key) {
    return [key](const Json& copy, const Json&) { return Seconds(copy, key); };
  };
  auto touched = [](const char* key) {
    return [key](const Json&, const Json& iou) { return 100.0 * iou.Get(key).AsDouble(); };
  };
  const Span total = SpanOver(index, copy_field("spec_total_bytes"));
  const Span real = SpanOver(index, copy_field("spec_real_bytes"));
  const Span touched_total = SpanOver(index, touched("frac_total_transferred"));
  const Span touched_real = SpanOver(index, touched("frac_real_transferred"));
  const Span excise = SpanOver(index, copy_seconds("excise_overall_us"));
  const Span insert = SpanOver(index, copy_seconds("insert_time_us"));
  const Span copy_xfer = SpanOver(index, copy_seconds("rimas_transfer_us"));
  const Span iou_xfer = SpanOver(index, [](const Json&, const Json& iou) {
    return Seconds(iou, "rimas_transfer_us");
  });
  const Span xfer_ratio = SpanOver(index, [](const Json& copy, const Json& iou) {
    return Seconds(copy, "rimas_transfer_us") / Seconds(iou, "rimas_transfer_us");
  });
  // PF1 may not be slower than PF0 end to end (0.1% slack).
  const Span pf1_loss = SpanOver(index, [&index](const Json& copy, const Json& iou) {
    const Json& pf1 = index.Find(copy.Get("workload").AsString(), "pure-IOU", 1);
    return Seconds(pf1, "transfer_plus_exec_us") - Seconds(iou, "transfer_plus_exec_us") * 1.001;
  });
  const double chess_copy = Seconds(index.Find("Chess", "pure-copy"), "transfer_plus_exec_us");
  const double chess_iou = Seconds(index.Find("Chess", "pure-IOU"), "transfer_plus_exec_us");

  MdTable claims({"Claim", "Ours", "(paper)"});
  auto ratio = [](const Span& span) {
    return FormatWithCommas(static_cast<std::uint64_t>(span.max / span.min)) + "x";
  };
  claims.AddRow({"Address-space size variance", ratio(total), "(12,803x)"});
  claims.AddRow({"RealMem variance", ratio(real), "(15x)"});
  claims.AddRow({"Touched, % of validated space",
                 FormatDouble(touched_total.min, 3) + "%-" + FormatDouble(touched_total.max, 1) +
                     "%",
                 "(0.002%-27.4%)"});
  claims.AddRow({"Touched, % of RealMem",
                 FormatDouble(touched_real.min, 1) + "%-" + FormatDouble(touched_real.max, 1) +
                     "%",
                 "(3%-58%)"});
  claims.AddRow(
      {"Excision time variance", FormatDouble(excise.max / excise.min, 1) + "x", "(4x)"});
  claims.AddRow(
      {"Insertion time variance", FormatDouble(insert.max / insert.min, 1) + "x", "(3.3x)"});
  claims.AddRow({"IOU transfer times",
                 FormatSeconds(iou_xfer.min) + "-" + FormatSeconds(iou_xfer.max) + " s",
                 "(~1 s bound, 0.15-0.21 s RIMAS)"});
  claims.AddRow({"Pure-copy transfer variance",
                 FormatDouble(copy_xfer.max / copy_xfer.min, 1) + "x", "(20x)"});
  claims.AddRow({"Worst copy vs IOU transfer", FormatDouble(xfer_ratio.max, 0) + "x", "(~1000x)"});
  claims.AddRow({"Avg byte savings (IOU PF0)",
                 FormatDouble(MeanIouSaving(index, BytesTotal), 1) + "%", "(58.2%)"});
  claims.AddRow({"Avg message-cost savings (IOU PF0)",
                 FormatDouble(MeanIouSaving(index, NetMsgBusy), 1) + "%", "(47.8%)"});
  claims.AddRow({"Chess end-to-end sensitivity",
                 FormatDouble(100.0 * (chess_iou - chess_copy) / chess_copy, 1) + "%",
                 "(insensitive)"});
  claims.AddRow({"One-page prefetch always helps", pf1_loss.max > 0 ? "NO" : "yes", "(yes)"});
  out << claims.ToString() << '\n';

  const Json& anchors = index.sweep().Get("fault_anchors");
  auto ms = [&anchors](const char* key) { return Seconds(anchors, key) * 1e3; };
  MdTable faults({"Fault", "Latency", "(paper)"});
  faults.AddRow({"Fill-zero fault", FormatDouble(ms("fillzero_us"), 1) + " ms", "(n/a)"});
  faults.AddRow({"Local disk fault", FormatDouble(ms("disk_us"), 1) + " ms", "(40.8 ms)"});
  faults.AddRow(
      {"Remote imaginary fault", FormatDouble(ms("imaginary_us"), 1) + " ms", "(115 ms)"});
  faults.AddRow({"Resident access", FormatDouble(ms("resident_us"), 3) + " ms", "(n/a)"});
  faults.AddRow({"Remote / local ratio",
                 FormatDouble(Seconds(anchors, "imaginary_us") / Seconds(anchors, "disk_us"), 2) +
                     "x",
                 "(2.8x)"});
  out << faults.ToString() << '\n';
}

// Section 4 in the paper's order: the tables, the figures, the summary.
void RenderPaper(const Json& sweep, std::ostream& out) {
  const SweepIndex index(sweep);
  RenderTable41(index, out);
  RenderTable42(index, out);
  RenderTable43(index, out);
  RenderTable44(index, out);
  RenderTable45(index, out);
  RenderFigure41(index, out);
  RenderFigure42(index, out);
  RenderFigure43(index, out);
  RenderFigure44(index, out);
  RenderFigure45(index, out);
  RenderSummary(index, out);
}

void RenderMetrics(const Json& sweep, std::ostream& out) {
  out << "## Sweep metrics registry\n\n"
      << "Aggregated over all " << sweep.Get("trial_count").AsUint64()
      << " grid trials (see `docs/OBSERVABILITY.md` for the schema).\n\n";
  const Json& metrics = sweep.Get("metrics");

  MdTable counters({"Counter", "Value"});
  for (const auto& [name, value] : metrics.Get("counters").AsObject()) {
    counters.AddRow({"`" + name + "`", FormatWithCommas(value.AsUint64())});
  }
  out << counters.ToString() << '\n';

  MdTable histograms({"Histogram", "Count", "Mean", "Min", "Max"});
  for (const auto& [name, h] : metrics.Get("histograms").AsObject()) {
    const std::uint64_t count = h.Get("count").AsUint64();
    const double mean = count == 0 ? 0.0 : h.Get("sum").AsDouble() / count;
    histograms.AddRow({"`" + name + "`", FormatWithCommas(count), FormatDouble(mean, 3),
                       FormatDouble(h.Get("min").AsDouble(), 3),
                       FormatDouble(h.Get("max").AsDouble(), 3)});
  }
  out << histograms.ToString() << '\n';
  RenderGates(sweep, out);
}

void RenderFailureMatrix(const Json& failure, std::ostream& out) {
  out << "## Failure matrix\n\n"
      << "Seven workloads x four strategies under a lossy / partitioning / "
         "crashing wire (`failure_sweep`). Invariants: nothing hangs, every "
         "completed migration has intact contents.\n\n";

  MdTable totals({"Trials", "Completed", "Aborted", "Terminal faults", "Restored", "Hung",
                  "Integrity failures"});
  totals.AddRow({FormatWithCommas(failure.Get("trial_count").AsUint64()),
                 FormatWithCommas(failure.Get("completed").AsUint64()),
                 FormatWithCommas(failure.Get("aborted").AsUint64()),
                 FormatWithCommas(failure.Get("terminal_faults").AsUint64()),
                 FormatWithCommas(failure.Get("restored").AsUint64()),
                 FormatWithCommas(failure.Get("hung").AsUint64()),
                 FormatWithCommas(failure.Get("integrity_failures").AsUint64())});
  out << totals.ToString() << '\n';

  // Per-strategy x scenario terminal-fault cells — the paper's section-5
  // residual-dependency kills, localised. Every pure-IOU source_crash trial
  // dies here with the store off; checkpoint_sweep re-runs the same matrix
  // against the durable store and must flip them all.
  const Json& breakdown = failure.Get("terminal_breakdown");
  out << "Terminal faults by strategy and fault scenario. A non-zero cell "
         "is a process that died with its source host — the residual-"
         "dependency cost of copy-on-reference the paper's section 5 "
         "predicts.\n\n";
  std::vector<std::string> columns;
  for (const auto& [strategy, cells] : breakdown.AsObject()) {
    for (const auto& [scenario, count] : cells.AsObject()) {
      (void)count;
      if (std::find(columns.begin(), columns.end(), scenario) == columns.end()) {
        columns.push_back(scenario);
      }
    }
    break;  // every strategy row carries the same scenario columns
  }
  std::vector<std::string> headers = {"Strategy"};
  for (const std::string& scenario : columns) {
    headers.push_back("`" + scenario + "`");
  }
  MdTable cells_table(std::move(headers));
  for (const auto& [strategy, cells] : breakdown.AsObject()) {
    std::vector<std::string> row = {"`" + strategy + "`"};
    for (const std::string& scenario : columns) {
      row.push_back(FormatWithCommas(cells.Get(scenario).AsUint64()));
    }
    cells_table.AddRow(std::move(row));
  }
  out << cells_table.ToString() << '\n';

  struct ScenarioAgg {
    std::uint64_t trials = 0, completed = 0, aborted = 0;
    std::uint64_t retransmits = 0, duplicates = 0, dead_letters = 0;
  };
  std::map<std::string, ScenarioAgg> scenarios;
  for (const Json& trial : failure.Get("trials").AsArray()) {
    ScenarioAgg& agg = scenarios[trial.Get("scenario").AsString()];
    ++agg.trials;
    const std::string outcome = trial.Get("outcome").AsString();
    agg.completed += outcome == "completed" ? 1 : 0;
    agg.aborted += outcome == "aborted" ? 1 : 0;
    agg.retransmits += trial.Get("fragments_retransmitted").AsUint64();
    agg.duplicates += trial.Get("duplicates_suppressed").AsUint64();
    agg.dead_letters += trial.Get("transfers_dead_lettered").AsUint64();
  }
  MdTable table({"Scenario", "Trials", "Completed", "Aborted", "Retransmits",
                 "Dup suppressed", "Dead-lettered"});
  for (const auto& [name, agg] : scenarios) {
    table.AddRow({"`" + name + "`", FormatWithCommas(agg.trials),
                  FormatWithCommas(agg.completed), FormatWithCommas(agg.aborted),
                  FormatWithCommas(agg.retransmits), FormatWithCommas(agg.duplicates),
                  FormatWithCommas(agg.dead_letters)});
  }
  out << table.ToString() << '\n';
  RenderGates(failure, out);
}

void RenderCheckpoint(const Json& ckpt, std::ostream& out) {
  out << "## Durable checkpoint store: the failure matrix, survivable\n\n"
      << "`checkpoint_sweep` re-runs the failure matrix with the persistent "
         "object store enabled (docs/INTERNALS.md §16): every migration "
         "checkpoints the excised image to a versioned store object first, so "
         "a source-host crash restores the process on a surviving host from "
         "the store instead of killing it. Compare the terminal-fault "
         "breakdown above — with the store on, every cell must read "
         "zero.\n\n";

  MdTable totals({"Trials", "Completed", "Aborted", "Terminal faults", "Restored", "Hung",
                  "Integrity failures"});
  totals.AddRow({FormatWithCommas(ckpt.Get("trial_count").AsUint64()),
                 FormatWithCommas(ckpt.Get("completed").AsUint64()),
                 FormatWithCommas(ckpt.Get("aborted").AsUint64()),
                 FormatWithCommas(ckpt.Get("terminal_faults").AsUint64()),
                 FormatWithCommas(ckpt.Get("restored").AsUint64()),
                 FormatWithCommas(ckpt.Get("hung").AsUint64()),
                 FormatWithCommas(ckpt.Get("integrity_failures").AsUint64())});
  out << totals.ToString() << '\n';
  RenderGates(ckpt, out);
}

void RenderPreCopy(const Json& precopy, std::ostream& out) {
  out << "## Pre-copy Pareto frontier: downtime vs bytes\n\n"
      << "`precopy_sweep` measures the fourth strategy family — live "
         "iterative pre-copy with dirty-page tracking — against the paper's "
         "three, per workload. Each pre-copy row is the best-downtime cell "
         "over the round-cap x downtime-SLO grid. Pre-copy buys its short "
         "freeze by re-shipping dirtied pages, so it always pays in page "
         "bytes (section 5's critique, quantified); copy-on-reference still "
         "dominates both axes.\n\n";

  MdTable table({"Process", "Live", "Copy down (s)", "Pre-copy down (s)", "IOU down (s)",
                 "Copy bytes", "Pre-copy bytes", "IOU bytes", "Rounds", "Win"});
  for (const Json& row : precopy.Get("pareto").AsArray()) {
    table.AddRow(
        {row.Get("workload").AsString(), row.Get("live").AsBool() ? "yes" : "staged",
         FormatDouble(row.Get("purecopy_downtime_s").AsDouble(), 2),
         FormatDouble(row.Get("precopy_downtime_s").AsDouble(), 2),
         FormatDouble(row.Get("iou_downtime_s").AsDouble(), 2),
         FormatWithCommas(row.Get("purecopy_page_bytes").AsUint64()),
         FormatWithCommas(row.Get("precopy_page_bytes").AsUint64()),
         FormatWithCommas(row.Get("iou_page_bytes").AsUint64()),
         FormatWithCommas(row.Get("precopy_rounds").AsUint64()),
         row.Get("downtime_win").AsBool() ? "yes" : "no"});
  }
  out << table.ToString() << '\n';
  RenderGates(precopy, out);
}

void RenderDedup(const Json& dedup, std::ostream& out) {
  out << "## Content-addressed dedup: repeated migrations of one image\n\n"
      << "`dedup_sweep` migrates the same " << dedup.Get("workload").AsString() << " image "
      << dedup.Get("repeats").AsUint64() << " times across a calibrated "
      << dedup.Get("hosts").AsUint64()
      << "-host fleet, content cache on vs off. With the cache on, a "
         "destination that already holds a page's bytes installs it on a "
         "small confirm ack instead of pulling the payload from the origin "
         "backer, and misses are served by the nearest holder before the "
         "origin — the per-round table shows the origin falling out of the "
         "fault path as the fleet warms up. The hash rider costs 16 B per real "
         "page up front, so dedup pays off only when the migrated image's touch "
         "fraction is high enough — docs/STRATEGIES.md quantifies the "
         "crossover.\n\n";

  MdTable table({"Round", "Dest", "Faulted", "Confirm acks", "Holder pulls",
                 "Origin payload", "Wire bytes"});
  for (const Json& row : dedup.Get("cached").Get("rounds").AsArray()) {
    table.AddRow({FormatWithCommas(row.Get("round").AsUint64()),
                  "host " + std::to_string(row.Get("dest_host").AsUint64()),
                  FormatWithCommas(row.Get("faulted_pages").AsUint64()),
                  FormatWithCommas(row.Get("confirmed_pages").AsUint64()),
                  FormatWithCommas(row.Get("holder_pages").AsUint64()),
                  FormatWithCommas(row.Get("origin_payload_pages").AsUint64()),
                  FormatWithCommas(row.Get("wire_bytes").AsUint64())});
  }
  out << table.ToString() << '\n';
  RenderGates(dedup, out);
}

void RenderCluster(const Json& cluster, std::ostream& out) {
  out << "## Fleet-scale cluster sweep\n\n"
      << "`cluster_sweep` runs a switched row of hosts under continuous "
         "Poisson churn with balancer-driven migrations (costs from the "
         "calibrated two-Perq formulas).\n\n";

  const Json& big = cluster.Get("big_trial");
  MdTable headline({"Hosts", "Arrived", "Migrations", "Steady thr (mig/s)",
                    "Queueing p50/p99 (s)", "Downtime p50/p99 (s)"});
  auto secs = [](const Json& trial, const char* key) {
    return FormatDouble(trial.Get(key).AsDouble() / 1e6, 2);
  };
  headline.AddRow(
      {FormatWithCommas(big.Get("hosts").AsUint64()),
       FormatWithCommas(big.Get("arrived").AsUint64()),
       FormatWithCommas(big.Get("migrations_completed").AsUint64()),
       FormatDouble(big.Get("steady_migrations_per_sec").AsDouble(), 3),
       secs(big, "queueing_p50_us") + " / " + secs(big, "queueing_p99_us"),
       secs(big, "downtime_p50_us") + " / " + secs(big, "downtime_p99_us")});
  out << headline.ToString() << '\n';

  out << "Policy grid (imbalance threshold x hysteresis x dispersal weight, "
         "per cluster size):\n\n";
  MdTable grid({"Hosts", "Threshold", "Hysteresis", "Dispersal", "Migrations",
                "Unfilled", "Steady thr (mig/s)", "Queueing p99 (s)",
                "Downtime p99 (s)"});
  for (const Json& row : cluster.Get("policy_sweep").AsArray()) {
    const Json& policy = row.Get("policy");
    grid.AddRow({FormatWithCommas(row.Get("hosts").AsUint64()),
                 FormatWithCommas(policy.Get("imbalance_threshold").AsUint64()),
                 FormatWithCommas(policy.Get("hysteresis").AsUint64()),
                 FormatDouble(policy.Get("dispersal_weight").AsDouble(), 1),
                 FormatWithCommas(row.Get("migrations_completed").AsUint64()),
                 FormatWithCommas(row.Get("directives_unfilled").AsUint64()),
                 FormatDouble(row.Get("steady_migrations_per_sec").AsDouble(), 3),
                 secs(row, "queueing_p99_us"), secs(row, "downtime_p99_us")});
  }
  out << grid.ToString() << '\n';
  RenderGates(cluster, out);
}

void RenderChain(const Json& chain, std::ostream& out) {
  out << "## Multi-hop chain sweep\n\n"
      << "`chain_sweep` migrates every workload A -> B -> C on a three-host "
         "testbed (" << chain.Get("trial_count").AsUint64() << " trials, plus "
      << chain.Get("crash_trial_count").AsUint64()
      << " where B crashes after its IOU chain collapses). After the collapse B "
         "must serve, forward and hold nothing, and every process must finish "
         "on C with the contents of a single-hop run.\n\n";
  RenderGates(chain, out);
}

void RenderFuzz(const Json& fuzz, std::ostream& out) {
  out << "## Adversarial scenario fuzz corpus\n\n"
      << "`fuzz_corpus` draws " << fuzz.Get("scenario_count").AsUint64()
      << " seeded scenarios from seed " << fuzz.Get("first_seed").AsUint64()
      << " (heterogeneous topology, workload, strategy, fault plan, "
         "re-migration, checkpoint store) and holds each to the standing "
         "oracles; a failing seed replays with `tools/migrate_sim "
         "--replay-seed=N`.\n\n";
  RenderGates(fuzz, out);
}

// The document's sections in order, each keyed by the `bench` of the report
// it renders. The sweep opens the document (section 4) and closes it (its
// metrics registry).
struct Section {
  const char* bench;
  void (*render)(const Json& report, std::ostream& out);
};
constexpr Section kSections[] = {
    {"sweep", RenderPaper},          {"failure_matrix", RenderFailureMatrix},
    {"checkpoint_matrix", RenderCheckpoint}, {"chain_sweep", RenderChain},
    {"precopy", RenderPreCopy},      {"dedup_sweep", RenderDedup},
    {"cluster", RenderCluster},      {"fuzz_corpus", RenderFuzz},
    {"sweep", RenderMetrics},
};

bool LoadJson(const std::string& path, Json* out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  std::ostringstream text;
  text << file.rdbuf();
  return Json::TryParse(text.str(), out);
}

int Main(int argc, char** argv) {
  std::string out_path = "docs/RESULTS.md";
  std::map<std::string, Json> reports;  // by bench
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-template-version") {
      std::printf("%d\n", kTemplateVersion);
      return 0;
    }
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "usage: render_results [--out FILE] REPORT...\n"
                   "       render_results --print-template-version\n");
      return 2;
    }
    Json report;
    const Json* bench = nullptr;
    if (!LoadJson(arg, &report) || (bench = report.Find("bench")) == nullptr ||
        !bench->is_string()) {
      std::fprintf(stderr, "render_results: %s is not a bench report\n", arg.c_str());
      return 1;
    }
    const std::string kind = bench->AsString();
    if (std::none_of(std::begin(kSections), std::end(kSections),
                     [&kind](const Section& section) { return kind == section.bench; })) {
      std::fprintf(stderr, "render_results: %s has unknown bench \"%s\"\n", arg.c_str(),
                   kind.c_str());
      return 1;
    }
    if (!reports.emplace(kind, std::move(report)).second) {
      std::fprintf(stderr, "render_results: bench \"%s\" given twice (%s)\n", kind.c_str(),
                   arg.c_str());
      return 1;
    }
  }
  const auto sweep = reports.find("sweep");
  if (sweep == reports.end()) {
    std::fprintf(stderr, "render_results: BENCH_sweep.json is required (run run_all first)\n");
    return 1;
  }

  std::ostringstream out;
  out << "<!-- Generated by tools/render_results (template v" << kTemplateVersion
      << "). Do not edit by hand. -->\n"
      << "# Results\n\n"
      << "Simulated reproduction of the measurements in *Attacking the Process "
         "Migration Bottleneck* (Zayas, SOSP 1987), rendered from the machine-"
         "readable bench reports. Paper-published values appear in parentheses "
         "next to ours; `(n/a)` marks cells the paper does not report.\n\n"
      << "Regenerate with:\n\n"
      << "```sh\n"
      << "cmake --build build -j\n"
      << "(cd build && ./bench/run_all && ./bench/failure_sweep && ./bench/checkpoint_sweep \\\n"
      << "    && ./bench/chain_sweep && ./bench/precopy_sweep && ./bench/dedup_sweep \\\n"
      << "    && ./bench/cluster_sweep && ./bench/fuzz_corpus)\n"
      << "./build/tools/render_results --out docs/RESULTS.md build/BENCH_*.json\n"
      << "```\n\n"
      << "Sweep grid: " << sweep->second.Get("trial_count").AsUint64() << " trials, seed "
      << sweep->second.Get("seed").AsUint64() << ".\n\n";
  for (const Section& section : kSections) {
    const auto report = reports.find(section.bench);
    if (report != reports.end()) {
      section.render(report->second, out);
    }
  }

  std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
  if (!file) {
    std::fprintf(stderr, "render_results: cannot write %s\n", out_path.c_str());
    return 1;
  }
  file << out.str();
  std::printf("render_results: wrote %s (template v%d)\n", out_path.c_str(),
              kTemplateVersion);
  return 0;
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
