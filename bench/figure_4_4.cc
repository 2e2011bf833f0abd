// Regenerates Figure 4-4: message-handling costs in seconds per trial —
// the elapsed CPU time both NetMsgServers spend processing the trial's IPC
// traffic ("each second spent by the NetMsgServer is stolen from all
// processes in both systems").
#include <cstdio>

#include "bench/bench_util.h"

namespace accent {
namespace {

void Run() {
  PrintHeading("Figure 4-4: Message Handling Costs in Seconds",
               "NetMsgServer CPU busy time summed over both nodes. Paper anchors:\n"
               "IOU (PF0) cuts handling cost 47.8% on average; PF1 dips slightly below\n"
               "PF0; larger prefetch climbs again (dead-weight pages, bigger replies).");

  TextTable table(
      {"Process", "Copy", "IOU PF0", "PF1", "PF3", "PF7", "PF15", "RS PF0", "PF15"});
  double savings_sum = 0;
  for (const std::string& name : RepresentativeNames()) {
    const double copy_cost =
        ToSeconds(PaperGrid::Find(name, TransferStrategy::kPureCopy, 0).netmsg_busy);
    std::vector<std::string> row{name, FormatSeconds(copy_cost)};
    for (std::uint32_t prefetch : kPaperPrefetchValues) {
      row.push_back(FormatSeconds(
          PaperGrid::Find(name, TransferStrategy::kPureIou, prefetch).netmsg_busy));
    }
    row.push_back(FormatSeconds(
        PaperGrid::Find(name, TransferStrategy::kResidentSet, 0).netmsg_busy));
    row.push_back(FormatSeconds(
        PaperGrid::Find(name, TransferStrategy::kResidentSet, 15).netmsg_busy));
    table.AddRow(row);

    const double iou_cost =
        ToSeconds(PaperGrid::Find(name, TransferStrategy::kPureIou, 0).netmsg_busy);
    savings_sum += 1.0 - iou_cost / copy_cost;
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Average pure-IOU (PF0) handling-cost savings vs pure-copy: %.1f%%"
              " (paper: 47.8%%)\n",
              100.0 * savings_sum / static_cast<double>(RepresentativeNames().size()));
  std::printf("Pure-copy wins on message *count* but loses on handling time: the\n"
              "majority of pages it ships are never used at the remote site.\n");
}

}  // namespace
}  // namespace accent

int main() {
  accent::Run();
  return 0;
}
