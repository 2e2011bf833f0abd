// Regenerates Figure 4-3: bytes transferred between the machines for each
// trial, from the migration request to remote completion.
#include <cstdio>

#include "bench/bench_util.h"

namespace accent {
namespace {

void Run() {
  PrintHeading("Figure 4-3: Bytes Transferred per Trial",
               "All bytes exchanged between the hosts (context, fault traffic, control).\n"
               "Paper anchors: pure-IOU (PF0) moves 58.2% fewer bytes than pure-copy on\n"
               "average; prefetch adds dead-weight bytes; RS cuts into the IOU savings.");

  TextTable table({"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0",
                   "PF15"});
  double savings_sum = 0;
  for (const std::string& name : RepresentativeNames()) {
    const ByteCount copy_bytes =
        PaperGrid::Find(name, TransferStrategy::kPureCopy, 0).bytes_total;
    std::vector<std::string> row{name, FormatWithCommas(copy_bytes)};
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      row.push_back(FormatWithCommas(
          PaperGrid::Find(name, TransferStrategy::kPureIou, prefetch).bytes_total));
    }
    row.push_back(FormatWithCommas(
        PaperGrid::Find(name, TransferStrategy::kResidentSet, 0).bytes_total));
    row.push_back(FormatWithCommas(
        PaperGrid::Find(name, TransferStrategy::kResidentSet, 15).bytes_total));
    table.AddRow(row);

    const ByteCount iou_bytes =
        PaperGrid::Find(name, TransferStrategy::kPureIou, 0).bytes_total;
    savings_sum += 1.0 - static_cast<double>(iou_bytes) / static_cast<double>(copy_bytes);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Average pure-IOU (PF0) byte savings vs pure-copy: %.1f%% (paper: 58.2%%)\n",
              100.0 * savings_sum / static_cast<double>(RepresentativeNames().size()));
}

}  // namespace
}  // namespace accent

int main() {
  accent::Run();
  return 0;
}
