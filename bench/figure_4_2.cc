// Regenerates Figure 4-2: overall migration speedup relative to pure-copy.
//
// For each representative, strategy and prefetch value, the elapsed times
// for address-space transfer and remote execution are summed and compared
// to the pure-copy result. Positive numbers are speedups.
#include <cstdio>

#include "bench/bench_util.h"

namespace accent {
namespace {

double Total(const TrialResult& trial) { return ToSeconds(trial.TransferPlusExec()); }

void Run() {
  PrintHeading("Figure 4-2: Percent Migration Speedup vs. Pure-Copy",
               "Transfer + remote execution, compared to pure-copy. Positive = faster.\n"
               "Paper anchors: processes touching < ~25% of RealMem win under pure-IOU;\n"
               "PF1 always helps; RS rarely pays its way; Chess is insensitive.");

  TextTable table({"Process", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF1", "PF3",
                   "PF7", "PF15"});
  for (const std::string& name : RepresentativeNames()) {
    const double copy_total = Total(PaperGrid::Find(name, TransferStrategy::kPureCopy, 0));
    std::vector<std::string> row{name};
    for (TransferStrategy strategy :
         {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
      for (std::uint32_t prefetch : kPaperPrefetchValues) {
        const double total = Total(PaperGrid::Find(name, strategy, prefetch));
        const double speedup = 100.0 * (copy_total - total) / copy_total;
        row.push_back(FormatDouble(speedup, 1));
      }
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  // The crossover claim: breakeven near one quarter of RealMem touched.
  std::printf("Touched fraction of RealMem vs. pure-IOU PF0 outcome:\n");
  for (const std::string& name : RepresentativeNames()) {
    const TrialResult& iou = PaperGrid::Find(name, TransferStrategy::kPureIou, 0);
    const double copy_total = Total(PaperGrid::Find(name, TransferStrategy::kPureCopy, 0));
    const double speedup = 100.0 * (copy_total - Total(iou)) / copy_total;
    std::printf("  %-8s touched %5.1f%%  -> %+7.1f%%\n", name.c_str(),
                100.0 * iou.FractionOfRealTransferred(), speedup);
  }
  std::printf("(paper: breakeven around 25%% of RealMem; Chess drowned by longevity)\n");
}

}  // namespace
}  // namespace accent

int main() {
  accent::Run();
  return 0;
}
