// Regenerates the section 4.5 summary: every headline claim of the paper,
// recomputed from fresh trials, side by side with the published number.
#include <cstdio>

#include "bench/bench_util.h"

namespace accent {
namespace {

double Total(const TrialResult& t) { return ToSeconds(t.TransferPlusExec()); }

void Run() {
  PrintHeading("Section 4.5 Summary: paper claim vs. this reproduction", "");

  // Address-space variance.
  ByteCount min_total = ~0ull, max_total = 0, min_real = ~0ull, max_real = 0;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    min_total = std::min(min_total, spec.total_bytes());
    max_total = std::max(max_total, spec.total_bytes());
    min_real = std::min(min_real, spec.real_bytes);
    max_real = std::max(max_real, spec.real_bytes);
  }

  // Excision / insertion variance.
  double min_exc = 1e9, max_exc = 0, min_ins = 1e9, max_ins = 0;
  double min_iou_xfer = 1e9, max_iou_xfer = 0, min_copy = 1e9, max_copy = 0;
  double worst_ratio = 0;
  double byte_savings = 0, msg_savings = 0;
  double min_touch_real = 1e9, max_touch_real = 0, min_touch_tot = 1e9, max_touch_tot = 0;
  const auto& names = RepresentativeNames();
  for (const std::string& name : names) {
    const TrialResult& copy = PaperGrid::Find(name, TransferStrategy::kPureCopy, 0);
    const TrialResult& iou = PaperGrid::Find(name, TransferStrategy::kPureIou, 0);
    min_exc = std::min(min_exc, ToSeconds(copy.migration.excise_overall));
    max_exc = std::max(max_exc, ToSeconds(copy.migration.excise_overall));
    min_ins = std::min(min_ins, ToSeconds(copy.migration.insert_time));
    max_ins = std::max(max_ins, ToSeconds(copy.migration.insert_time));
    min_iou_xfer = std::min(min_iou_xfer, ToSeconds(iou.migration.RimasTransferTime()));
    max_iou_xfer = std::max(max_iou_xfer, ToSeconds(iou.migration.RimasTransferTime()));
    min_copy = std::min(min_copy, ToSeconds(copy.migration.RimasTransferTime()));
    max_copy = std::max(max_copy, ToSeconds(copy.migration.RimasTransferTime()));
    worst_ratio = std::max(worst_ratio, ToSeconds(copy.migration.RimasTransferTime()) /
                                            ToSeconds(iou.migration.RimasTransferTime()));
    byte_savings += 1.0 - static_cast<double>(iou.bytes_total) /
                              static_cast<double>(copy.bytes_total);
    msg_savings +=
        1.0 - ToSeconds(iou.netmsg_busy) / ToSeconds(copy.netmsg_busy);
    min_touch_real = std::min(min_touch_real, 100.0 * iou.FractionOfRealTransferred());
    max_touch_real = std::max(max_touch_real, 100.0 * iou.FractionOfRealTransferred());
    min_touch_tot = std::min(min_touch_tot, 100.0 * iou.FractionOfTotalTransferred());
    max_touch_tot = std::max(max_touch_tot, 100.0 * iou.FractionOfTotalTransferred());
  }
  const double n = static_cast<double>(names.size());

  TextTable table({"Claim", "Paper", "Measured"});
  table.AddRow({"Address-space size variance", "12,803x",
                FormatWithCommas(max_total / min_total) + "x"});
  table.AddRow({"RealMem variance", "15x", FormatWithCommas(max_real / min_real) + "x"});
  table.AddRow({"Touched, % of validated space", "0.002%-27.4%",
                FormatDouble(min_touch_tot, 3) + "%-" + FormatDouble(max_touch_tot, 1) + "%"});
  table.AddRow({"Touched, % of RealMem", "3%-58%",
                FormatDouble(min_touch_real, 1) + "%-" + FormatDouble(max_touch_real, 1) + "%"});
  table.AddRow({"Excision time variance", "4x", FormatDouble(max_exc / min_exc, 1) + "x"});
  table.AddRow({"Insertion time variance", "3.3x", FormatDouble(max_ins / min_ins, 1) + "x"});
  table.AddRow({"IOU transfer times", "~1 s bound (0.15-0.21 s RIMAS)",
                FormatSeconds(min_iou_xfer) + "-" + FormatSeconds(max_iou_xfer) + " s"});
  table.AddRow({"Pure-copy transfer variance", "20x",
                FormatDouble(max_copy / min_copy, 1) + "x"});
  table.AddRow({"Worst copy vs IOU transfer", "~1000x", FormatDouble(worst_ratio, 0) + "x"});
  table.AddRow({"Avg byte savings (IOU PF0)", "58.2%",
                FormatDouble(100.0 * byte_savings / n, 1) + "%"});
  table.AddRow({"Avg message-cost savings (IOU PF0)", "47.8%",
                FormatDouble(100.0 * msg_savings / n, 1) + "%"});

  const TrialResult& chess_copy = PaperGrid::Find("Chess", TransferStrategy::kPureCopy, 0);
  const TrialResult& chess_iou = PaperGrid::Find("Chess", TransferStrategy::kPureIou, 0);
  table.AddRow({"Chess end-to-end sensitivity", "insensitive",
                FormatDouble(100.0 * (Total(chess_iou) - Total(chess_copy)) /
                                 Total(chess_copy), 1) + "%"});

  // Prefetch-1 rule: PF1 never slower than PF0 end-to-end.
  bool pf1_always_helps = true;
  for (const std::string& name : names) {
    const double pf0 = Total(PaperGrid::Find(name, TransferStrategy::kPureIou, 0));
    const double pf1 = Total(PaperGrid::Find(name, TransferStrategy::kPureIou, 1));
    if (pf1 > pf0 * 1.001) {
      pf1_always_helps = false;
    }
  }
  table.AddRow({"One-page prefetch always helps", "yes", pf1_always_helps ? "yes" : "NO"});

  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace accent

int main() {
  accent::Run();
  return 0;
}
