#include "perfbench/labs.h"

#include <memory>
#include <string>
#include <utility>

#include "src/base/page_ref.h"
#include "src/base/page_store.h"
#include "src/experiments/sweep_cache.h"
#include "src/experiments/testbed.h"
#include "src/experiments/trial.h"
#include "src/proc/excise.h"
#include "src/vm/backer.h"
#include "src/workloads/workload.h"

namespace perfbench {

using namespace accent;  // NOLINT(build/namespaces): lab code reads like the simulator's

namespace {

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// Swallows lab results so the optimiser cannot drop the work.
volatile std::uint64_t g_lab_sink = 0;

struct Sink : Receiver {
  std::uint64_t count = 0;
  void HandleMessage(Message) override { ++count; }
  const char* receiver_name() const override { return "perfbench-sink"; }
};

std::vector<PageRef> PatternPages(std::size_t count, std::uint64_t seed) {
  std::vector<PageRef> pages;
  pages.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    pages.emplace_back(MakePatternPage(seed + p));
  }
  return pages;
}

// A 64 KB out-of-line message of real pages; no_ious keeps the NetMsgServer
// from substituting an IOU, so every byte is fragmented onto the wire.
Message BulkMessage(PortId dest, const std::vector<PageRef>& pages) {
  Message msg;
  msg.dest = dest;
  msg.no_ious = true;
  msg.traffic = TrafficKind::kBulkData;
  msg.regions.push_back(MemoryRegion::Data(0, pages));
  return msg;
}

constexpr std::size_t kBulkPages = 64 * 1024 / kPageSize;
constexpr int kLabReps = 5;

// Disk-backed real, zero-fill and remote imaginary ranges of 1024 pages
// each on host 0, the imaginary one backed from host 1 (the shape of
// bench/micro_faults).
struct FaultBench {
  static constexpr PageIndex kPages = 1024;

  FaultBench() {
    space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()), bed.host(0)->id);
    Segment* image = bed.segments().CreateReal(kPages * kPageSize, "lab-image");
    for (PageIndex p = 0; p < kPages; ++p) {
      image->StorePage(p, MakePatternPage(p + 1));
    }
    backer = std::make_unique<SegmentBacker>(bed.host(1)->id, &bed.sim(), &bed.costs(),
                                             &bed.fabric(), &bed.segments(), CpuWork::kProcess,
                                             "lab-backer");
    backer->Start();
    space->MapReal(0, kPages * kPageSize, image, 0, /*copy_on_write=*/false);
    space->Validate(kPages * kPageSize, 2 * kPages * kPageSize);
    Segment* remote = bed.segments().CreateReal(kPages * kPageSize, "lab-remote");
    for (PageIndex p = 0; p < kPages; ++p) {
      remote->StorePage(p, MakePatternPage(p + 5000));
    }
    Segment* standin =
        bed.segments().CreateImaginary(kPages * kPageSize, backer->Back(remote), "lab-standin");
    space->MapImaginary(2 * kPages * kPageSize, 3 * kPages * kPageSize, standin, 0);
  }

  // Host ns per first touch of every page in [first, first + kPages).
  double TouchAll(PageIndex first) {
    const auto start = Clock::now();
    std::uint64_t done = 0;
    for (PageIndex p = first; p < first + kPages; ++p) {
      bed.pager(0)->Access(space.get(), PageBase(p), /*write=*/false,
                           [&done](const AccessOutcome&) { ++done; });
      bed.sim().Run();
    }
    ACCENT_CHECK(done == kPages);
    return NsSince(start) / static_cast<double>(kPages);
  }

  Testbed bed;
  std::unique_ptr<SegmentBacker> backer;
  std::unique_ptr<AddressSpace> space;
};

}  // namespace

void DispatchLab(MetricSet& metrics, SpanRecorder& spans) {
  constexpr std::uint64_t kEvents = 200000;
  std::vector<double> ns;
  for (int rep = 0; rep < kLabReps; ++rep) {
    Simulator sim;
    std::uint64_t sum = 0;
    std::uint64_t* out = &sum;
    SpanRecorder::Scope span(spans, "lab.sim.dispatch", static_cast<std::uint64_t>(rep));
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      // Five 8-byte words: a 40-byte capture, the inline event limit.
      const std::uint64_t a = i;
      const std::uint64_t b = i * 3;
      const std::uint64_t c = i * 5;
      const std::uint64_t d = i * 7;
      sim.ScheduleAt(SimTime(static_cast<std::int64_t>((i * 7919) % kEvents)),
                     [out, a, b, c, d] { *out += a ^ b ^ c ^ d; });
    }
    const std::uint64_t executed = sim.Run();
    ACCENT_CHECK(executed == kEvents);
    ns.push_back(NsSince(start) / static_cast<double>(executed));
    g_lab_sink = g_lab_sink + sum;
  }
  metrics.Set("sim.dispatch_ns", Median(ns));
}

void FragmentLab(MetricSet& metrics, SpanRecorder& spans) {
  constexpr int kSends = 400;
  const std::vector<PageRef> pages = PatternPages(kBulkPages, 1);
  std::vector<double> ns;
  for (int rep = 0; rep < kLabReps; ++rep) {
    Testbed bed;
    Sink sink;
    const PortId port = bed.fabric().AllocatePort(bed.host(1)->id, &sink, "lab-sink");
    const std::uint64_t fragments =
        NetMsgFragmentCount(bed.costs(), BulkMessage(port, pages).WireSize(bed.costs()));
    SpanRecorder::Scope span(spans, "lab.netmsg.fragment", static_cast<std::uint64_t>(rep));
    const auto start = Clock::now();
    for (int k = 0; k < kSends; ++k) {
      ACCENT_CHECK(bed.fabric().Send(bed.host(0)->id, BulkMessage(port, pages)).ok());
      bed.sim().Run();
    }
    ns.push_back(NsSince(start) / static_cast<double>(fragments * kSends));
    ACCENT_CHECK(sink.count == static_cast<std::uint64_t>(kSends));
  }
  metrics.Set("netmsg.fragment_ns", Median(ns));
}

void FaultLab(MetricSet& metrics, SpanRecorder& spans) {
  std::vector<double> fillzero;
  std::vector<double> disk;
  std::vector<double> imaginary;
  for (int rep = 0; rep < kLabReps; ++rep) {
    FaultBench lab;
    const auto unit = static_cast<std::uint64_t>(rep);
    {
      SpanRecorder::Scope span(spans, "lab.pager.fillzero", unit);
      fillzero.push_back(lab.TouchAll(FaultBench::kPages));
    }
    {
      SpanRecorder::Scope span(spans, "lab.pager.disk", unit);
      disk.push_back(lab.TouchAll(0));
    }
    {
      SpanRecorder::Scope span(spans, "lab.pager.imaginary", unit);
      imaginary.push_back(lab.TouchAll(2 * FaultBench::kPages));
    }
  }
  metrics.Set("pager.fault_ns.fillzero", Median(fillzero));
  metrics.Set("pager.fault_ns.disk", Median(disk));
  metrics.Set("pager.fault_ns.imaginary", Median(imaginary));
}

void CacheTierLab(MetricSet& metrics, SpanRecorder& spans) {
  std::vector<double> confirm;
  std::vector<double> holder;
  for (int rep = 0; rep < 3; ++rep) {
    TestbedConfig config;
    config.host_count = 3;
    config.content_cache = true;
    Testbed bed(config);
    std::vector<WorkloadInstance> instances;

    // One pure-IOU migration of PM-Mid from host 0 to `dest`, run to
    // completion there. Returns the host ns the round took.
    auto round = [&](int dest, const char* span_name) {
      instances.push_back(BuildWorkload(WorkloadByName("PM-Mid"), bed.host(0), 42));
      Process* proc = instances.back().process.get();
      bed.manager(0)->RegisterLocal(proc);
      Process* landed = nullptr;
      bed.manager(dest)->set_on_insert([&landed](Process* inserted) { landed = inserted; });
      SpanRecorder::Scope span(spans, span_name, static_cast<std::uint64_t>(rep));
      const auto start = Clock::now();
      bed.manager(0)->Migrate(proc, bed.manager(dest)->port(), TransferStrategy::kPureIou,
                              [](const MigrationRecord&) {});
      ACCENT_CHECK(bed.RunGuarded());
      ACCENT_CHECK(landed != nullptr && landed->done());
      return NsSince(start);
    };

    round(1, "lab.pager.cache_seed");  // host 1's cache learns the image
    const double holder_ns = round(2, "lab.pager.holder_pull");
    const std::uint64_t pulled = bed.pager(2)->stats().cache_pages_from_holders;
    const std::uint64_t confirmed_before = bed.pager(1)->stats().cache_pages_confirmed;
    const double confirm_ns = round(1, "lab.pager.cache_confirm");
    const std::uint64_t confirmed = bed.pager(1)->stats().cache_pages_confirmed - confirmed_before;
    holder.push_back(pulled == 0 ? 0.0 : holder_ns / static_cast<double>(pulled));
    confirm.push_back(confirmed == 0 ? 0.0 : confirm_ns / static_cast<double>(confirmed));
  }
  metrics.Set("pager.fault_ns.cache_confirm", Median(confirm));
  metrics.Set("pager.fault_ns.holder_pull", Median(holder));
}

void ExciseInsertLab(MetricSet& metrics, SpanRecorder& spans) {
  std::vector<double> excise;
  std::vector<double> insert;
  for (int rep = 0; rep < 3 * kLabReps; ++rep) {
    Testbed bed;
    WorkloadInstance instance = BuildWorkload(WorkloadByName("PM-Mid"), bed.host(0), 42);
    const auto pages = static_cast<double>(instance.spec.real_pages());
    const auto unit = static_cast<std::uint64_t>(rep);

    ExciseResult excised;
    bool excise_done = false;
    auto start = Clock::now();
    {
      SpanRecorder::Scope span(spans, "lab.proc.excise", unit);
      ExciseProcess(instance.process.get(), [&](ExciseResult r) {
        excised = std::move(r);
        excise_done = true;
      });
      bed.sim().Run();
    }
    excise.push_back(NsSince(start) / pages);
    ACCENT_CHECK(excise_done);

    std::unique_ptr<Process> inserted;
    start = Clock::now();
    {
      SpanRecorder::Scope span(spans, "lab.proc.insert", unit);
      InsertProcess(bed.host(1), std::move(excised.core), std::move(excised.rimas),
                    [&](std::unique_ptr<Process> p, InsertResult) { inserted = std::move(p); });
      bed.sim().Run();
    }
    insert.push_back(NsSince(start) / pages);
    ACCENT_CHECK(inserted != nullptr);
  }
  metrics.Set("proc.excise_ns_per_page", Median(excise));
  metrics.Set("proc.insert_ns_per_page", Median(insert));
}

void BaseLab(MetricSet& metrics, SpanRecorder& spans) {
  constexpr std::size_t kHashPages = 4096;
  std::vector<double> cold;
  std::vector<double> memo;
  for (int rep = 0; rep < kLabReps; ++rep) {
    const std::vector<PageRef> pages = PatternPages(kHashPages, 1 + kHashPages * rep);
    std::uint64_t mix = 0;
    for (std::vector<double>* out : {&cold, &memo}) {
      SpanRecorder::Scope span(spans, out == &cold ? "lab.base.hash_cold" : "lab.base.hash_memo",
                               static_cast<std::uint64_t>(rep));
      const auto start = Clock::now();
      for (const PageRef& page : pages) {
        mix ^= page.Hash().lo;
      }
      out->push_back(NsSince(start) / static_cast<double>(kHashPages));
    }
    g_lab_sink = g_lab_sink + mix;
  }
  metrics.Set("base.page_hash_ns.cold", Median(cold));
  metrics.Set("base.page_hash_ns.memo", Median(memo));

  // Sixteen runs of 512 pages with 64-page gaps, probed at pseudo-random
  // indices (about one probe in nine misses).
  constexpr PageIndex kRuns = 16;
  constexpr PageIndex kRunPages = 512;
  constexpr PageIndex kStride = kRunPages + 64;
  constexpr std::uint64_t kProbes = 1u << 20;
  PageStore store;
  const PageRef page(MakePatternPage(7));
  for (PageIndex r = 0; r < kRuns; ++r) {
    for (PageIndex p = 0; p < kRunPages; ++p) {
      store.Store(r * kStride + p, page);
    }
  }
  std::vector<double> lookup;
  for (int rep = 0; rep < kLabReps; ++rep) {
    std::uint64_t hits = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(rep);
    SpanRecorder::Scope span(spans, "lab.base.page_store_find", static_cast<std::uint64_t>(rep));
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kProbes; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      hits += store.Find((x >> 33) % (kRuns * kStride)) != nullptr ? 1 : 0;
    }
    lookup.push_back(NsSince(start) / static_cast<double>(kProbes));
    g_lab_sink = g_lab_sink + hits;
  }
  metrics.Set("base.page_store_lookup_ns", Median(lookup));
}

void JsonRowLab(MetricSet& metrics, SpanRecorder& spans) {
  TrialConfig config;
  config.workload = "PM-Mid";
  config.strategy = TransferStrategy::kResidentSet;
  config.prefetch = 1;
  const TrialResult result = RunTrial(config);
  constexpr int kRows = 40;
  std::vector<double> us;
  for (int rep = 0; rep < kLabReps; ++rep) {
    std::size_t bytes = 0;
    SpanRecorder::Scope span(spans, "lab.base.json_row", static_cast<std::uint64_t>(rep));
    const auto start = Clock::now();
    for (int k = 0; k < kRows; ++k) {
      bytes += TrialResultToJson(result).Dump().size();
    }
    us.push_back(NsSince(start) / 1000.0 / kRows);
    g_lab_sink = g_lab_sink + bytes;
  }
  metrics.Set("base.json_row_us", Median(us));
}

void LossyTransferLab(const std::vector<FuzzScenario>& scenarios, MetricSet& metrics,
                      SpanRecorder& spans) {
  constexpr std::size_t kMaxTransfers = 16;
  const std::vector<PageRef> pages = PatternPages(kBulkPages, 1);
  std::uint64_t retransmits = 0;
  std::uint64_t acks = 0;
  std::size_t transfers = 0;
  for (const FuzzScenario& scenario : scenarios) {
    if (transfers == kMaxTransfers) {
      break;
    }
    FaultPlan plan;
    plan.drop = scenario.drop;
    plan.duplicate = scenario.duplicate;
    plan.delay = scenario.delay;
    plan.reorder = scenario.reorder;
    if (!plan.enabled()) {
      continue;
    }
    Tracer tracer;
    tracer.set_verbose(true);
    TestbedConfig config;
    config.fault_plan = plan;
    config.fault_seed = scenario.seed;
    config.tracer = &tracer;
    Testbed bed(config);
    Sink sink;
    const PortId port = bed.fabric().AllocatePort(bed.host(1)->id, &sink, "lab-sink");
    {
      SpanRecorder::Scope span(spans, "lab.netmsg.lossy_transfer", scenario.seed);
      ACCENT_CHECK(bed.fabric().Send(bed.host(0)->id, BulkMessage(port, pages)).ok());
      ACCENT_CHECK(bed.RunGuarded());
    }
    for (const TraceEvent& event : tracer.events()) {
      if (event.lane != TraceLane::kNetMsg) {
        continue;
      }
      retransmits += event.name == "netmsg:retransmit" ? 1 : 0;
      acks += event.name == "netmsg:ack-send" ? 1 : 0;
    }
    ++transfers;
  }
  metrics.Set("netmsg.retransmits", static_cast<double>(retransmits));
  metrics.Set("netmsg.acks", static_cast<double>(acks));
}

void RunLayerLabs(MetricSet& metrics, SpanRecorder& spans, bool with_json_row_lab) {
  DispatchLab(metrics, spans);
  FragmentLab(metrics, spans);
  FaultLab(metrics, spans);
  CacheTierLab(metrics, spans);
  ExciseInsertLab(metrics, spans);
  BaseLab(metrics, spans);
  if (with_json_row_lab) {
    JsonRowLab(metrics, spans);
  }
}

}  // namespace perfbench
