// The studies beyond the paper's section 4, folded into BENCH_beyond.json:
// claims the paper argues but never stages (§2.1's Fitzgerald observation,
// §4.4.2's time stolen from bystanders), the Pasmac life cycle executed
// instead of staged, and six ablations of the model. Every claim the docs
// draw from them is a declared gate (checked by tools/check_bench, rendered
// by tools/render_results).
//
// Usage: beyond_paper [--out FILE]
//   --out   report path (default BENCH_beyond.json)
// The staged trials fan out over ACCENT_SWEEP_THREADS; the report is
// byte-identical at any thread count.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/experiments/lifecycle.h"
#include "src/experiments/metrics_fold.h"
#include "src/experiments/sweep.h"
#include "src/experiments/testbed.h"
#include "src/metrics/gates.h"
#include "src/workloads/workload.h"

namespace accent {
namespace {

// A staged study's runs (RunMechTrials judges each against its workload's
// unmigrated reference) as paper-grid rows.
Json TrialRows(const std::vector<MechTrial>& trials) {
  Json rows{Json::Array{}};
  for (const MechTrial& trial : trials) {
    rows.Append(PaperRowToJson(trial));
  }
  return rows;
}

// The staged studies' runs that did not finish with the reference contents,
// counted from their rows.
std::uint64_t IntegrityFailures(const Json& report) {
  std::uint64_t failures = 0;
  for (const Json* rows :
       {&report.Get("iou_caching"), &report.Get("prefetch").Get("trials"), &report.Get("memory")}) {
    for (const Json& row : rows->AsArray()) {
      failures += row.Get("integrity_ok").AsBool() ? 0 : 1;
    }
  }
  return failures;
}

// max - min, in microseconds; 0 for an empty list.
SimDuration::rep Spread(const std::vector<SimDuration>& values) {
  if (values.empty()) {
    return 0;
  }
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return (*hi - *lo).count();
}

// With NetMsgServer IOU substitution (§2.4) off, pure-IOU ships its RIMAS
// data as-is. Three rows per workload: pure-IOU with substitution on, off,
// then pure-copy. The claim: the whole Table 4-5 gap is this one mechanism.
void IouCachingStudy(Json* report) {
  std::vector<FuzzScenario> specs;
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    specs.push_back({.workload = spec.name, .strategy = TransferStrategy::kPureIou});
    specs.push_back(
        {.workload = spec.name, .strategy = TransferStrategy::kPureIou, .iou_caching = false});
    specs.push_back({.workload = spec.name, .strategy = TransferStrategy::kPureCopy});
  }
  const std::vector<MechTrial> results = RunMechTrials(specs);
  std::uint64_t as_copy = 0;
  for (std::size_t i = 0; i < results.size(); i += 3) {
    const MechRun& off = results[i + 1].run;
    const MechRun& copy = results[i + 2].run;
    as_copy += off.hop1.RimasTransferTime() == copy.hop1.RimasTransferTime() &&
               off.WireBytes() == copy.WireBytes() && off.RemoteExec() == copy.RemoteExec();
  }
  (*report)["iou_caching"] = TrialRows(results);
  AddGate(report, "iou_off_costs_as_copy", as_copy, "==", results.size() / 3);
}

// Pure-IOU at prefetch 0..16 (the paper samples 0/1/3/7/15; §4.4.2
// recommends one page) on a sequential scan, Lisp and Chess.
void PrefetchStudy(Json* report) {
  const std::vector<std::string> workloads = {"PM-Start", "Lisp-Del", "Chess"};
  const std::vector<std::uint32_t> depths = {0, 1, 2, 3, 4, 6, 8, 12, 16};
  std::vector<FuzzScenario> specs;
  for (const std::string& workload : workloads) {
    for (std::uint32_t prefetch : depths) {
      specs.push_back(
          {.workload = workload, .strategy = TransferStrategy::kPureIou, .prefetch = prefetch});
    }
  }
  const std::vector<MechTrial> results = RunMechTrials(specs);
  Json best{Json::Object{}};
  std::uint64_t pf1_wins = 0;
  for (auto first = results.begin(); first != results.end(); first += depths.size()) {
    const auto fastest = std::min_element(first, first + depths.size(),
                                          [](const MechTrial& a, const MechTrial& b) {
                                            return a.run.TransferPlusExec() <
                                                   b.run.TransferPlusExec();
                                          });
    best[first->spec.workload] = Json(fastest->spec.prefetch);
    pf1_wins += first[1].run.TransferPlusExec() < first[0].run.TransferPlusExec();
  }
  AddGate(report, "prefetch_pf1_beats_pf0", pf1_wins, "==", workloads.size());
  AddGate(report, "prefetch_lisp_del_best_below_pm_start", best.Get("Lisp-Del"), "<",
          best.Get("PM-Start"));
  (*report)["prefetch"] = Json::Object{{"trials", TrialRows(results)}, {"best_prefetch", best}};
}

// Lisp-Del as the destination's frames halve, pure-copy then pure-IOU at
// each size: pure-copy lands its whole image, which overflows to disk;
// copy-on-reference materialises only what it touches.
void MemoryStudy(Json* report) {
  const std::vector<std::size_t> frame_counts = {8192, 4096, 2048, 1024, 512};
  std::vector<FuzzScenario> specs;
  for (std::size_t frames : frame_counts) {
    for (TransferStrategy strategy : {TransferStrategy::kPureCopy, TransferStrategy::kPureIou}) {
      specs.push_back({.workload = "Lisp-Del", .strategy = strategy, .frames_per_host = frames});
    }
  }
  const std::vector<MechTrial> results = RunMechTrials(specs);
  Json rows{Json::Array{}};
  std::vector<SimDuration> copy_exec;
  std::vector<SimDuration> iou_exec;
  for (const MechTrial& trial : results) {
    Json row = PaperRowToJson(trial);
    row["frames"] = Json(trial.spec.frames_per_host);
    rows.Append(std::move(row));
    (trial.spec.strategy == TransferStrategy::kPureCopy ? copy_exec : iou_exec)
        .push_back(trial.run.RemoteExec());
  }
  std::uint64_t rises = 0;
  for (std::size_t i = 1; i < copy_exec.size(); ++i) {
    rises += copy_exec[i] > copy_exec[i - 1];
  }
  (*report)["memory"] = std::move(rows);
  AddGate(report, "memory_copy_exec_rises_per_halving", rises, "==", copy_exec.size() - 1);
  AddGate(report, "memory_iou_exec_spread_us", Spread(iou_exec), "<", Spread(copy_exec) / 10);
}

// Transfer + remote execution of one migration at `per_byte_us` of
// NetMsgServer handling per byte (33 on the 1987 testbed), the wire sped up
// by the same factor: faster software usually rides faster wires.
SimDuration NetworkTotal(const char* workload, std::int64_t per_byte_us,
                         TransferStrategy strategy) {
  TestbedConfig config;
  config.costs.netmsg_per_byte = Us(per_byte_us);
  config.costs.wire_bytes_per_sec *= 33.0 / static_cast<double>(per_byte_us);
  Testbed bed(config);
  WorkloadInstance instance = BuildWorkload(WorkloadByName(workload), bed.host(0), 42);
  bed.manager(0)->RegisterLocal(instance.process.get());
  MigrationRecord record;
  bool done = false;
  bed.manager(0)->Migrate(instance.process.get(), bed.manager(1)->port(), strategy,
                          [&](const MigrationRecord& r) {
                            record = r;
                            done = true;
                          });
  bed.sim().Run();
  ACCENT_CHECK(done);
  const Process* remote = bed.manager(1)->adopted().at(0).get();
  ACCENT_CHECK(remote->done());
  return record.RimasTransferTime() + (remote->finish_time() - record.resumed);
}

// The sweep the paper could not run: as per-byte handling falls, when does
// eager copying overtake copy-on-reference? A workload flips at the highest
// per-byte cost at which pure-copy is no slower than pure-IOU.
void NetworkStudy(Json* report) {
  Json rows{Json::Array{}};
  Json flip{Json::Object{}};
  for (const char* workload : {"Lisp-Del", "PM-Start", "Minprog"}) {
    std::int64_t flips_at = 0;
    for (std::int64_t per_byte : {33, 10, 3, 1}) {
      const SimDuration copy = NetworkTotal(workload, per_byte, TransferStrategy::kPureCopy);
      const SimDuration iou = NetworkTotal(workload, per_byte, TransferStrategy::kPureIou);
      if (copy <= iou && flips_at == 0) {
        flips_at = per_byte;
      }
      rows.Append(Json::Object{{"workload", workload},
                               {"netmsg_per_byte_us", per_byte},
                               {"copy_total_us", copy.count()},
                               {"iou_total_us", iou.count()}});
    }
    flip[workload] = Json(flips_at);
  }
  (*report)["network"] = std::move(rows);
  AddGate(report, "network_pm_start_flips_before_lisp_del", flip.Get("PM-Start"), ">",
          flip.Get("Lisp-Del"));
  AddGate(report, "network_lisp_del_flips_before_minprog", flip.Get("Lisp-Del"), ">",
          flip.Get("Minprog"));
  AddGate(report, "network_minprog_flips_by_1us", flip.Get("Minprog"), ">=", 1);
}

struct Sink : Receiver {
  std::uint64_t received = 0;
  void HandleMessage(Message) override { ++received; }
};

Message PagesMessage(std::size_t pages) {
  Message msg;
  msg.regions.push_back(
      MemoryRegion::Data(0, std::vector<PageData>(pages, MakePatternPage(1))));
  return msg;
}

// Simulated time for `msg`, sent from host 0 of a fresh testbed priced by
// `costs`, to reach a port on host `dest`.
SimDuration Deliver(const CostTable& costs, int dest, Message msg) {
  TestbedConfig config;
  config.costs = costs;
  Testbed bed(config);
  Sink sink;
  msg.dest = bed.fabric().AllocatePort(bed.host(dest)->id, &sink, "sink");
  const SimTime start = bed.sim().Now();
  ACCENT_CHECK(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  bed.sim().Run();
  ACCENT_CHECK(sink.received == 1);
  return bed.sim().Now() - start;
}

// §2.1's design choices. Local delivery by message size and copy threshold:
// below the threshold the bytes are copied twice, above it the receiver's
// map is rewritten copy-on-write. Then 256 KB across the wire by
// NetMsgServer fragment size.
void IpcStudy(Json* report) {
  Json local{Json::Array{}};
  SimDuration::rep above_spread = 0;
  for (ByteCount threshold : {512u, 2048u, 16u * 1024u, 1024u * 1024u}) {
    CostTable costs;
    costs.ipc_copy_threshold = threshold;
    std::vector<SimDuration> above;
    for (ByteCount bytes : {256u, 1024u, 8u * 1024u, 64u * 1024u}) {
      Message msg;
      if (bytes >= kPageSize) {
        msg = PagesMessage(bytes / kPageSize);
      } else {
        msg.inline_bytes = bytes;
      }
      const SimDuration latency = Deliver(costs, 0, std::move(msg));
      if (bytes > threshold) {
        above.push_back(latency);
      }
      local.Append(Json::Object{{"message_bytes", bytes},
                                {"threshold_bytes", threshold},
                                {"latency_us", latency.count()}});
    }
    above_spread = std::max(above_spread, Spread(above));
  }
  Json fragments{Json::Array{}};
  ByteCount fastest = 0;
  SimDuration fastest_transfer = SimDuration::max();
  for (ByteCount frag : {2u * 1024u, 4u * 1024u, 16u * 1024u, 64u * 1024u, 256u * 1024u}) {
    CostTable costs;
    costs.netmsg_fragment_bytes = frag;
    Message msg = PagesMessage(512);
    msg.no_ious = true;
    const SimDuration transfer = Deliver(costs, 1, std::move(msg));
    if (transfer < fastest_transfer) {
      fastest_transfer = transfer;
      fastest = frag;
    }
    fragments.Append(Json::Object{{"fragment_bytes", frag}, {"transfer_us", transfer.count()}});
  }
  (*report)["ipc"] = Json::Object{{"local", std::move(local)}, {"fragments", std::move(fragments)}};
  AddGate(report, "ipc_above_threshold_latency_spread_us", above_spread, "==", 0);
  AddGate(report, "ipc_fastest_fragment_bytes", fastest, "==", CostTable{}.netmsg_fragment_bytes);
}

// A victim on host 2 reads 32 pages owed by host 1's NetMsgServer cache,
// 250 ms apart, while Lisp-Del streams host 1 -> host 2 by pure-copy.
// Returns the victim's elapsed time.
SimDuration VictimElapsed(bool priority_lane) {
  TestbedConfig config;
  config.costs.fault_priority_lane = priority_lane;
  Testbed bed(config);

  std::vector<std::pair<PageIndex, PageRef>> cached;
  for (PageIndex p = 0; p < 64; ++p) {
    cached.emplace_back(p, MakePatternPage(p + 50));
  }
  const IouRef iou = bed.netmsg(0)->AdoptPages(std::move(cached), "victim-memory");
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()), bed.host(1)->id);
  Segment* standin = bed.segments().CreateImaginary(kAddressSpaceLimit, iou, "standin");
  space->MapImaginary(0, 64 * kPageSize, standin, 0);
  auto victim = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "victim",
                                          bed.host(1), std::move(space), 1);
  TraceBuilder trace;
  for (PageIndex p = 0; p < 64; p += 2) {
    trace.Read(PageBase(p));
    trace.Compute(Ms(250));
  }
  trace.Terminate();
  victim->SetTrace(trace.Build(), 0);

  WorkloadInstance heavy = BuildWorkload(WorkloadByName("Lisp-Del"), bed.host(0), 42);
  bed.manager(0)->RegisterLocal(heavy.process.get());
  bed.manager(0)->Migrate(heavy.process.get(), bed.manager(1)->port(),
                          TransferStrategy::kPureCopy, [](const MigrationRecord&) {});
  victim->Start();
  bed.sim().Run();
  ACCENT_CHECK(victim->done());
  return victim->finish_time() - victim->start_time();
}

// A high-priority CPU lane for the imaginary-fault path, which the 1987
// system lacked (§4.4.3's cost distribution implies it).
void PriorityStudy(Json* report) {
  const SimDuration fcfs = VictimElapsed(false);
  const SimDuration lane = VictimElapsed(true);
  (*report)["priority"] =
      Json::Object{{"fcfs_victim_us", fcfs.count()}, {"lane_victim_us", lane.count()}};
  AddGate(report, "priority_lane_speedup", ToSeconds(fcfs) / ToSeconds(lane), ">", 1.0);
}

// A 60 s compute-bound bystander on host 1 while `workload` migrates away
// under `strategy`; with no workload, the machine is otherwise idle.
// Returns the bystander's elapsed time.
SimDuration BystanderElapsed(const char* workload = nullptr,
                             TransferStrategy strategy = TransferStrategy::kPureCopy) {
  Testbed bed;
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()), bed.host(0)->id);
  space->Validate(0, 16 * kPageSize);
  auto bystander = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "bystander",
                                             bed.host(0), std::move(space), 1);
  TraceBuilder trace;
  for (int i = 0; i < 120; ++i) {
    trace.Compute(Ms(500));
    trace.Read(PageBase(static_cast<PageIndex>(i % 16)));
  }
  trace.Terminate();
  bystander->SetTrace(trace.Build(), 0);
  bystander->Start();

  WorkloadInstance instance;
  if (workload != nullptr) {
    instance = BuildWorkload(WorkloadByName(workload), bed.host(0), 42);
    bed.manager(0)->RegisterLocal(instance.process.get());
    bed.manager(0)->Migrate(instance.process.get(), bed.manager(1)->port(), strategy,
                            [](const MigrationRecord&) {});
  }
  bed.sim().Run();
  ACCENT_CHECK(bystander->done());
  return bystander->finish_time() - bystander->start_time();
}

// §4.4.2: "each second of execution time spent by the NetMsgServer to
// handle message traffic is not only a second stolen from the migrated
// process but from all processes in both systems".
void BystanderStudy(Json* report) {
  Json runs{Json::Array{}};
  std::uint64_t copy_slower = 0;
  for (const char* workload : {"Lisp-Del", "PM-Start", "Minprog"}) {
    const SimDuration copy = BystanderElapsed(workload, TransferStrategy::kPureCopy);
    const SimDuration iou = BystanderElapsed(workload, TransferStrategy::kPureIou);
    const SimDuration rs = BystanderElapsed(workload, TransferStrategy::kResidentSet);
    copy_slower += copy > iou;
    runs.Append(Json::Object{{"workload", workload},
                             {"copy_us", copy.count()},
                             {"iou_us", iou.count()},
                             {"rs_us", rs.count()}});
  }
  const std::uint64_t workloads = runs.AsArray().size();
  (*report)["bystander"] =
      Json::Object{{"idle_us", BystanderElapsed().count()}, {"runs", std::move(runs)}};
  AddGate(report, "bystander_copy_slows_more_than_iou", copy_slower, "==", workloads);
}

// §2.1: "Fitzgerald's study reveals that up to 99.98% of data passed
// between processes in a system-building application did not have to be
// physically copied." A compiler/linker/librarian mix of local messages:
// many small control messages, copied below the threshold, and a few large
// object-file transfers, mapped copy-on-write above it.
void FitzgeraldStudy(Json* report) {
  Testbed bed;
  Sink sink;
  const PortId port = bed.fabric().AllocatePort(bed.host(0)->id, &sink, "builder");
  constexpr std::uint64_t kMessages = 2000;
  Rng rng(7);
  ByteCount total_bytes = 0;
  ByteCount copied_bytes = 0;
  std::uint64_t small_messages = 0;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    Message msg;
    msg.dest = port;
    if (rng.NextBool(0.9)) {
      msg.inline_bytes = 64 + rng.NextBelow(448);  // status, symbols, commands
      ++small_messages;
    } else {
      // An object file or expanded source, 64 KB .. 1 MB; contents irrelevant.
      msg.regions.push_back(
          MemoryRegion::Data(0, std::vector<PageData>(128 + rng.NextBelow(1920))));
      msg.no_ious = true;
    }
    const ByteCount wire = msg.WireSize(bed.costs());
    total_bytes += wire;
    copied_bytes += wire <= bed.costs().ipc_copy_threshold ? wire : 0;
    ACCENT_CHECK(bed.fabric().Send(bed.host(0)->id, std::move(msg)).ok());
  }
  bed.sim().Run();
  ACCENT_CHECK(sink.received == kMessages);

  const double avoided =
      1.0 - static_cast<double>(copied_bytes) / static_cast<double>(total_bytes);
  (*report)["fitzgerald"] = Json::Object{{"messages", kMessages},
                                         {"small_messages", small_messages},
                                         {"large_messages", kMessages - small_messages},
                                         {"bytes_passed", total_bytes},
                                         {"bytes_copied", copied_bytes},
                                         {"avoided_fraction", avoided}};
  AddGate(report, "fitzgerald_avoided_fraction", avoided, ">=", 0.99);
}

// The PM-Start/Mid/End methodology as one executed program migrated at
// 10%, 50% and 90% of its file scan: the resident set at migration is
// emergent, not staged.
void LifecycleStudy(Json* report) {
  Json rows{Json::Array{}};
  std::vector<double> resident;
  std::vector<double> touched;
  std::uint64_t rs_equal_iou = 0;
  for (double at : {0.1, 0.5, 0.9}) {
    LifecycleConfig config;
    config.migrate_at = at;
    config.strategy = TransferStrategy::kPureIou;
    const LifecycleResult iou = RunLifecycle(config);
    config.strategy = TransferStrategy::kResidentSet;
    const LifecycleResult rs = RunLifecycle(config);
    resident.push_back(static_cast<double>(iou.resident_bytes) /
                       static_cast<double>(iou.real_bytes_at_migration));
    touched.push_back(iou.FractionOfImageTouchedRemotely());
    rs_equal_iou += rs.dest_pager.imag_faults == iou.dest_pager.imag_faults;
    rows.Append(Json::Object{{"migrate_at", at},
                             {"resident_bytes", iou.resident_bytes},
                             {"real_bytes_at_migration", iou.real_bytes_at_migration},
                             {"iou_remote_faults", iou.dest_pager.imag_faults},
                             {"image_touched_fraction", touched.back()},
                             {"rs_remote_faults", rs.dest_pager.imag_faults},
                             {"iou_transfer_us", iou.migration.RimasTransferTime().count()}});
  }
  // Tables 4-2 and 4-3's opposing trends: later in life, a larger resident
  // set and a smaller remote-touch fraction.
  std::uint64_t opposing_steps = 0;
  for (std::size_t i = 1; i < resident.size(); ++i) {
    opposing_steps += resident[i] > resident[i - 1] && touched[i] < touched[i - 1];
  }
  (*report)["lifecycle"] = std::move(rows);
  AddGate(report, "lifecycle_rs_grows_touch_falls", opposing_steps, "==", resident.size() - 1);
  AddGate(report, "lifecycle_rs_faults_equal_iou", rs_equal_iou, "==", resident.size());
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_beyond.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  Json report{Json::Object{}};
  report["bench"] = Json("beyond");
  report["schema_version"] = Json(2);
  IouCachingStudy(&report);
  PrefetchStudy(&report);
  MemoryStudy(&report);
  const std::uint64_t integrity_failures = IntegrityFailures(report);
  report["integrity_failures"] = Json(integrity_failures);
  AddGate(&report, "integrity_failures", integrity_failures, "==", 0);
  NetworkStudy(&report);
  IpcStudy(&report);
  PriorityStudy(&report);
  BystanderStudy(&report);
  FitzgeraldStudy(&report);
  LifecycleStudy(&report);
  return WriteReport(report, out);
}

}  // namespace
}  // namespace accent

int main(int argc, char** argv) { return accent::Main(argc, argv); }
