#include "src/proc/excise.h"

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace accent {
namespace {

// Builds the RIMAS region list: one Data region per RealMem interval, one
// IOU region per contiguous imaginary backer run.
std::vector<MemoryRegion> BuildRimasRegions(const AddressSpace& space) {
  std::vector<MemoryRegion> regions;
  // One region per AMap interval; count them up front so the regions vector
  // is allocated exactly once.
  std::size_t region_count = 0;
  space.amap().ForEach([&](const AMap::Interval& iv) {
    if (iv.value == MemClass::kReal || iv.value == MemClass::kImag) {
      ++region_count;  // imaginary intervals may still split per backer
    }
  });
  regions.reserve(region_count);
  space.amap().ForEach([&](const AMap::Interval& iv) {
    if (iv.value == MemClass::kReal) {
      std::vector<PageRef> pages;
      pages.reserve((iv.end - iv.begin) / kPageSize);
      for (PageIndex page = PageOf(iv.begin); page < PageOf(iv.end); ++page) {
        pages.push_back(space.ReadPage(page));  // shares the payload
      }
      regions.push_back(MemoryRegion::Data(iv.begin, std::move(pages)));
      return;
    }
    if (iv.value == MemClass::kImag) {
      // Split the interval at backer discontinuities.
      PageIndex page = PageOf(iv.begin);
      const PageIndex end = PageOf(iv.end);
      while (page < end) {
        const PageIndex run = space.ImagRunLength(page, end - page);
        ACCENT_CHECK(run >= 1);
        const AddressSpace::ImagTarget target = space.ImagTargetOf(PageBase(page));
        IouRef iou = target.iou;
        // Rebase so that the region's own offset convention is preserved:
        // offset within the backer of the region's first page.
        iou.offset = target.backer_offset;
        MemoryRegion region = MemoryRegion::Iou(PageBase(page), run * kPageSize, iou);
        // Forward content-hash hints across hops (docs/INTERNALS.md §15):
        // when the departing space knows every page's hash, the rider
        // travels with the re-issued IOU so the next destination can keep
        // probing caches. A partially-hinted run ships no rider.
        std::vector<PageHashEntry> rider;
        rider.reserve(run);
        for (PageIndex i = 0; i < run; ++i) {
          const PageHash* hint = space.HashHintOf(page + i);
          if (hint == nullptr) {
            rider.clear();
            break;
          }
          rider.push_back({i, *hint});
        }
        region.page_hashes = std::move(rider);
        regions.push_back(std::move(region));
        page += run;
      }
    }
  });
  return regions;
}

struct InsertPlan {
  // Shipped pages, one run per Data region, sorted into address order: the
  // message's regions are disjoint but not sorted (MergeStagedPages appends
  // staged pre-copy runs after the RIMAS's own regions).
  std::vector<const MemoryRegion*> data_regions;
  std::vector<const MemoryRegion*> iou_regions;
};

// Returns the most specific (smallest) IOU region covering `addr`. A RIMAS
// can carry both exact owed ranges (pointing at an earlier host's backer)
// and a consolidated cache region whose span includes holes it cannot
// serve; the exact region must win where both cover (re-migration).
const MemoryRegion* IouRegionCovering(const InsertPlan& plan, Addr addr) {
  const MemoryRegion* best = nullptr;
  for (const MemoryRegion* region : plan.iou_regions) {
    if (addr >= region->base && addr < region->base + region->size) {
      if (best == nullptr || region->size < best->size) {
        best = region;
      }
    }
  }
  return best;
}

}  // namespace

MigrationCostModel::Footprint FootprintOf(const Process& proc) {
  const AddressSpace& space = *proc.space();
  MigrationCostModel::Footprint fp;
  fp.map_entries = static_cast<std::int64_t>(space.map_entries());
  fp.real_pages = static_cast<std::int64_t>(space.RealBytes() / kPageSize);
  fp.resident_pages = static_cast<std::int64_t>(proc.env()->memory->ResidentCount(space.id()));
  return fp;
}

void ExciseProcess(Process* proc, std::function<void(ExciseResult)> done) {
  ACCENT_EXPECTS(proc != nullptr && done != nullptr);
  ACCENT_EXPECTS(proc->state() == ProcState::kSuspended || proc->state() == ProcState::kReady)
      << " ExciseProcess requires a quiescent process";
  HostEnv* env = proc->env();
  ACCENT_CHECK(proc->space() != nullptr);
  const MigrationCostModel::Footprint fp = FootprintOf(*proc);
  const SimDuration amap_cost = MigrationCostModel::ExciseAmapCost(*env->costs, fp);
  const SimDuration rimas_cost = MigrationCostModel::ExciseRimasCost(*env->costs, fp);

  auto result = std::make_shared<ExciseResult>();
  const SimTime start = env->sim->Now();

  // Phase 1: AMap construction (the expensive walk of process + system maps).
  env->cpu->Submit(CpuWork::kMigration, amap_cost, [env, proc, result, start, rimas_cost,
                                                    done = std::move(done)]() mutable {
    result->amap_time = env->sim->Now() - start;
    const SimTime rimas_start = env->sim->Now();

    // Phase 2: collapse of process memory into the contiguous RIMAS chunk.
    env->cpu->Submit(CpuWork::kMigration, rimas_cost, [env, proc, result, start, rimas_start,
                                                       done = std::move(done)]() mutable {
      result->rimas_time = env->sim->Now() - rimas_start;

      // Phase 3: port-right extraction, PCB and microstate packaging.
      env->cpu->Submit(CpuWork::kMigration, env->costs->excise_other,
                       [env, proc, result, start, done = std::move(done)]() mutable {
        std::unique_ptr<AddressSpace> space_taken = proc->TakeSpace();

        CoreBody body;
        body.proc = proc->id();
        body.name = proc->name();
        body.microstate_token = proc->microstate_token();
        body.trace = proc->trace();
        body.trace_pc = proc->trace_pc();

        result->core.op = MsgOp::kMigrateCore;
        result->core.traffic = TrafficKind::kCoreContext;
        result->core.inline_bytes = env->costs->core_context_bytes;
        result->core.amap = space_taken->amap();
        result->core.has_amap = true;
        result->core.body = std::move(body);
        result->core.rights.reserve(proc->receive_rights().size());
        for (PortId port : proc->receive_rights()) {
          result->core.rights.push_back(PortRightTransfer{port, /*receive_right=*/true});
          // The caller (migration agent) holds the rights in the interim.
          env->fabric->SetReceiver(port, nullptr);
        }

        result->rimas.op = MsgOp::kMigrateRimas;
        result->rimas.traffic = TrafficKind::kBulkData;
        result->rimas.inline_bytes = 32;
        result->rimas.body = RimasBody{proc->id()};
        result->rimas.regions = BuildRimasRegions(*space_taken);

        // The process ceases to exist at this host.
        env->memory->RemoveSpace(space_taken->id());
        proc->MarkExcised();

        result->overall_time = env->sim->Now() - start;
        done(std::move(*result));
      });
    });
  });
}

void InsertProcess(HostEnv* env, Message core, Message rimas,
                   std::function<void(std::unique_ptr<Process>, InsertResult)> done) {
  ACCENT_EXPECTS(env != nullptr && env->complete() && done != nullptr);
  ACCENT_EXPECTS(core.op == MsgOp::kMigrateCore && core.has_amap);
  ACCENT_EXPECTS(rimas.op == MsgOp::kMigrateRimas);

  ByteCount data_bytes = 0;
  for (const MemoryRegion& region : rimas.regions) {
    if (region.mem_class == MemClass::kReal) {
      data_bytes += region.size;
    }
  }
  const SimDuration cost = MigrationCostModel::InsertCost(
      *env->costs, static_cast<std::int64_t>(core.amap.entry_count()),
      static_cast<std::int64_t>(data_bytes / kPageSize));

  const SimTime start = env->sim->Now();
  auto state = std::make_shared<std::pair<Message, Message>>(std::move(core), std::move(rimas));

  env->cpu->Submit(CpuWork::kMigration, cost, [env, state, start, done = std::move(done)]() {
    Message& core_msg = state->first;
    Message& rimas_msg = state->second;
    const auto& body = core_msg.BodyAs<CoreBody>();

    InsertPlan plan;
    for (const MemoryRegion& region : rimas_msg.regions) {
      if (region.mem_class == MemClass::kReal && !region.pages.empty()) {
        plan.data_regions.push_back(&region);
      } else if (region.mem_class == MemClass::kImag) {
        plan.iou_regions.push_back(&region);
      }
    }
    std::sort(plan.data_regions.begin(), plan.data_regions.end(),
              [](const MemoryRegion* a, const MemoryRegion* b) { return a->base < b->base; });
    for (std::size_t i = 1; i < plan.data_regions.size(); ++i) {
      ACCENT_CHECK(plan.data_regions[i - 1]->base + plan.data_regions[i - 1]->size <=
                   plan.data_regions[i]->base)
          << " RIMAS data regions overlap at " << plan.data_regions[i]->base;
    }

    auto space = std::make_unique<AddressSpace>(SpaceId(env->sim->AllocateId()), env->id);
    // One imaginary stand-in segment per distinct backer object.
    std::map<std::uint64_t, Segment*> imag_segments;
    auto imag_segment_for = [&](const IouRef& iou) {
      auto it = imag_segments.find(iou.segment.value);
      if (it != imag_segments.end()) {
        return it->second;
      }
      Segment* segment = env->segments->CreateImaginary(kAddressSpaceLimit, iou,
                                                        "imag-standin:" + body.name);
      imag_segments.emplace(iou.segment.value, segment);
      return segment;
    };

    // Maps an address run imaginary through the IOU region(s) covering it.
    // One AMap interval may coalesce ranges owed to different backers
    // (re-migration), so the run is split at region boundaries.
    auto map_imaginary_run = [&](Addr begin, Addr end) {
      Addr cursor = begin;
      while (cursor < end) {
        const MemoryRegion* region = IouRegionCovering(plan, cursor);
        ACCENT_CHECK(region != nullptr)
            << " page at " << cursor << " has neither data nor an IOU in the RIMAS message";
        const Addr stop = std::min(end, region->base + region->size);
        IouRef iou = region->iou;
        // Region offset convention: iou.offset addresses the region's base.
        const ByteCount target_offset = iou.offset + (cursor - region->base);
        iou.offset = 0;
        Segment* segment = imag_segment_for(iou);
        space->MapImaginary(cursor, stop, segment, target_offset);
        // Copy the region's hash rider (if any) into per-page hints so the
        // pager's hash-probe fault walk can consult them later.
        if (!region->page_hashes.empty()) {
          for (Addr va = cursor; va < stop; va += kPageSize) {
            const PageIndex slot = (va - region->base) / kPageSize;
            if (const PageHash* hash = region->FindPageHash(slot)) {
              space->SetPageHashHint(PageOf(va), *hash);
            }
          }
        }
        cursor = stop;
      }
    };

    // Installs the shipped pages of `region` in [begin, end) as one run.
    // Frames are taken page by page in address order: which frames the
    // arrivals evict, and so the overflow writes, depend on that order.
    auto install_run = [&](const MemoryRegion& region, Addr begin, Addr end) {
      const PageIndex first = PageOf(begin);
      const PageIndex count = PageOf(end) - first;
      space->InstallRun(first, std::span<const PageRef>(region.pages).subspan(
                                   PageOf(begin - region.base), count));
      for (PageIndex page = first; page < first + count; ++page) {
        auto eviction = env->memory->Insert(space->id(), page, /*dirty=*/true);
        if (eviction.has_value() && eviction->dirty) {
          env->disk->Write(1, nullptr);  // arriving context overflows memory
        }
      }
    };

    auto next_data = plan.data_regions.begin();
    core_msg.amap.ForEach([&](const AMap::Interval& iv) {
      switch (iv.value) {
        case MemClass::kRealZero:
          space->Validate(iv.begin, iv.end);
          return;
        case MemClass::kReal: {
          // Validate as the foundation, then install the shipped runs and
          // map the owed pages between them imaginary.
          space->Validate(iv.begin, iv.end);
          Addr cursor = iv.begin;
          while (next_data != plan.data_regions.end() &&
                 (*next_data)->base + (*next_data)->size <= cursor) {
            ++next_data;  // what is left of it lies outside every Real interval
          }
          while (cursor < iv.end) {
            if (next_data == plan.data_regions.end() || (*next_data)->base >= iv.end) {
              map_imaginary_run(cursor, iv.end);
              break;
            }
            const MemoryRegion& region = **next_data;
            if (region.base > cursor) {
              map_imaginary_run(cursor, region.base);
              cursor = region.base;
            }
            const Addr stop = std::min(iv.end, region.base + region.size);
            install_run(region, cursor, stop);
            cursor = stop;
            if (stop == region.base + region.size) {
              ++next_data;
            }
          }
          return;
        }
        case MemClass::kImag:
          map_imaginary_run(iv.begin, iv.end);
          return;
        case MemClass::kBad:
          return;
      }
    });

    auto process = std::make_unique<Process>(body.proc, body.name, env, std::move(space),
                                             body.microstate_token);
    process->SetTrace(body.trace, body.trace_pc);
    for (const PortRightTransfer& right : core_msg.rights) {
      if (right.receive_right) {
        env->fabric->MovePort(right.port, env->id, process.get());
        process->AttachReceiveRight(right.port);
      }
    }

    InsertResult result;
    result.process = process.get();
    result.insert_time = env->sim->Now() - start;
    done(std::move(process), result);
  });
}

}  // namespace accent
