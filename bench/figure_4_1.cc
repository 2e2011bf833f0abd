// Regenerates Figure 4-1: remote execution times in seconds.
//
// The measurement interval starts when the relocated program is restarted
// at the new host and ends when remote execution completes. Columns PFn are
// trials with n pages prefetched per imaginary fault.
#include <cstdio>

#include "bench/bench_util.h"

namespace accent {
namespace {

void Run() {
  PrintHeading("Figure 4-1: Remote Execution Times in Seconds",
               "Rows: pure-copy baseline, then pure-IOU and resident-set across prefetch\n"
               "values 0/1/3/7/15. Paper anchors: Minprog ~44x slower under pure-IOU;\n"
               "Chess only ~3% longer; Pasmac halves its IOU time with large prefetch.");

  TextTable table({"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF1",
                   "PF3", "PF7", "PF15"});
  for (const std::string& name : RepresentativeNames()) {
    std::vector<std::string> row{name};
    row.push_back(
        FormatSeconds(PaperGrid::Find(name, TransferStrategy::kPureCopy, 0).remote_exec));
    for (TransferStrategy strategy :
         {TransferStrategy::kPureIou, TransferStrategy::kResidentSet}) {
      for (std::uint32_t prefetch : kPaperPrefetchValues) {
        row.push_back(FormatSeconds(PaperGrid::Find(name, strategy, prefetch).remote_exec));
      }
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  const double minprog_copy =
      ToSeconds(PaperGrid::Find("Minprog", TransferStrategy::kPureCopy, 0).remote_exec);
  const double minprog_iou =
      ToSeconds(PaperGrid::Find("Minprog", TransferStrategy::kPureIou, 0).remote_exec);
  const double chess_copy =
      ToSeconds(PaperGrid::Find("Chess", TransferStrategy::kPureCopy, 0).remote_exec);
  const double chess_iou =
      ToSeconds(PaperGrid::Find("Chess", TransferStrategy::kPureIou, 0).remote_exec);
  const double pm_iou0 =
      ToSeconds(PaperGrid::Find("PM-Start", TransferStrategy::kPureIou, 0).remote_exec);
  const double pm_iou15 =
      ToSeconds(PaperGrid::Find("PM-Start", TransferStrategy::kPureIou, 15).remote_exec);
  std::printf("Minprog pure-IOU slowdown: %.0fx (paper: 44x)\n", minprog_iou / minprog_copy);
  std::printf("Chess pure-IOU penalty: %.1f%% (paper: ~3%%)\n",
              100.0 * (chess_iou - chess_copy) / chess_copy);
  std::printf("PM-Start IOU PF0 -> PF15 improvement: %.2fx (paper: up to 2x)\n",
              pm_iou0 / pm_iou15);

  // Prefetch hit ratios (section 4.3.3 prose).
  std::printf("\nPrefetch hit ratios (hits / prefetched pages):\n");
  for (const char* name : {"Lisp-Del", "PM-Start"}) {
    std::printf("  %-8s:", name);
    for (std::uint32_t prefetch : {1u, 3u, 7u, 15u}) {
      const TrialResult& trial = PaperGrid::Find(name, TransferStrategy::kPureIou, prefetch);
      const double ratio =
          trial.dest_pager.prefetched_pages == 0
              ? 0.0
              : static_cast<double>(trial.dest_pager.prefetch_hits) /
                    static_cast<double>(trial.dest_pager.prefetched_pages);
      std::printf("  PF%-2u %4.0f%%", prefetch, 100.0 * ratio);
    }
    std::printf("\n");
  }
  std::printf("(paper: Lisp drops ~40%% -> ~20%% as prefetch grows; Pasmac holds ~78%%)\n");
}

}  // namespace
}  // namespace accent

int main() {
  accent::Run();
  return 0;
}
