#include "src/experiments/lifecycle.h"

#include "src/base/page_ref.h"
#include "src/base/rng.h"
#include "src/experiments/testbed.h"

namespace accent {

LifecycleResult RunLifecycle(const LifecycleConfig& config) {
  ACCENT_EXPECTS(config.migrate_at >= 0.0 && config.migrate_at < 1.0);
  TestbedConfig testbed_config;
  testbed_config.frames_per_host = config.frames_per_host;
  Testbed bed(testbed_config);

  LifecycleResult result;
  result.config = config;

  // --- the program -----------------------------------------------------------
  auto space = std::make_unique<AddressSpace>(SpaceId(bed.sim().AllocateId()),
                                              bed.host(0)->id);
  Segment* image = bed.segments().CreateReal(config.image_pages * kPageSize, "pasmac-image");
  for (PageIndex p = 0; p < config.image_pages; ++p) {
    image->StorePage(p, PageRef::Pattern(config.seed * 1000 + p));
  }
  const Addr image_base = 0;
  const Addr zero_base = config.image_pages * kPageSize;
  space->MapReal(image_base, zero_base, image, 0, /*copy_on_write=*/false);
  space->Validate(zero_base, zero_base + config.zero_pages * kPageSize);

  // Sequential whole-file scan; output writes interleave evenly.
  TraceBuilder trace;
  const SimDuration slice =
      config.compute / static_cast<std::int64_t>(config.image_pages + config.output_pages);
  const double out_every = config.output_pages == 0
                               ? 0.0
                               : static_cast<double>(config.image_pages) /
                                     static_cast<double>(config.output_pages);
  double out_next = out_every;
  PageIndex outputs = 0;
  for (PageIndex p = 0; p < config.image_pages; ++p) {
    if (p % 4 == 3) {
      trace.Write(PageBase(p) + 9, static_cast<std::uint8_t>(p));
    } else {
      trace.Read(PageBase(p));
    }
    trace.Compute(slice);
    while (outputs < config.output_pages && static_cast<double>(p + 1) >= out_next) {
      trace.Write(zero_base + PageBase(outputs) + 3, static_cast<std::uint8_t>(outputs));
      trace.Compute(slice);
      ++outputs;
      out_next += out_every;
    }
  }
  trace.Terminate();
  TracePtr program = trace.Build();

  // The migration point: the trace index whose image touch is the
  // migrate_at fraction of the scan.
  std::size_t migrate_pc = 0;
  {
    const auto target =
        static_cast<PageIndex>(config.migrate_at * static_cast<double>(config.image_pages));
    PageIndex seen = 0;
    for (std::size_t i = 0; i < program->size(); ++i) {
      const TraceOp& op = (*program)[i];
      if (op.kind == TraceOp::Kind::kTouch && PageOf(op.addr) < config.image_pages &&
          op.addr < zero_base) {
        if (seen++ == target) {
          migrate_pc = i;
          break;
        }
      }
    }
  }

  auto proc = std::make_unique<Process>(ProcId(bed.sim().AllocateId()), "pasmac-life",
                                        bed.host(0), std::move(space), config.seed);
  proc->SetTrace(program, 0);
  bed.manager(0)->RegisterLocal(proc.get());
  bed.SetPrefetch(config.prefetch);

  // --- run to the migration point, then move it -------------------------------
  bool migrated = false;
  proc->SuspendAt(migrate_pc, [&]() {
    const AddressSpace& live = *proc->space();
    result.resident_bytes = bed.host(0)->memory->ResidentCount(live.id()) * kPageSize;
    result.real_bytes_at_migration = live.RealBytes();
    result.pre_touched_pages = live.touched_page_count();

    bed.manager(0)->Migrate(proc.get(), bed.manager(1)->port(), config.strategy,
                            [&](const MigrationRecord& record) {
                              result.migration = record;
                              migrated = true;
                            });
  });
  proc->Start();
  bed.sim().Run();
  ACCENT_CHECK(migrated) << " lifecycle migration never completed";

  ACCENT_CHECK(bed.manager(1)->adopted().size() == 1);
  Process* remote = bed.manager(1)->adopted()[0].get();
  ACCENT_CHECK(remote->done());
  result.finished = remote->finish_time();
  result.remote_exec = result.finished - result.migration.resumed;
  result.remote_touched_pages = remote->space()->touched_page_count();
  result.dest_pager = bed.pager(1)->stats();
  result.bytes_total = bed.traffic().TotalBytes();

  // Spot-check data integrity across the whole image at the destination.
  for (PageIndex p = 0; p < config.image_pages; p += 97) {
    if (remote->space()->ClassOf(PageBase(p)) == MemClass::kImag) {
      continue;  // untouched owed page
    }
    const PageRef page = remote->space()->ReadPage(p);  // shared lookup, no copy
    const PageRef want = PageRef::Pattern(config.seed * 1000 + p);
    if (p % 4 == 3) {
      ACCENT_CHECK(PageByteAt(page, 9) == static_cast<std::uint8_t>(p));
      ACCENT_CHECK(PageByteAt(page, 10) == PageByteAt(want, 10));
    } else {
      ACCENT_CHECK(page == want) << " image corruption at page " << p;
    }
  }
  return result;
}

}  // namespace accent
