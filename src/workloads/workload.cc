#include "src/workloads/workload.h"

#include <algorithm>
#include <iterator>

#include "src/base/rng.h"
#include "src/workloads/trace_gen.h"

namespace accent {
namespace {

// Layout starts above a small unmapped guard region.
constexpr Addr kLayoutBase = 16 * kPageSize;

// Splits `total` pages into `parts` region sizes, each >= 1 page.
std::vector<PageIndex> SplitPages(PageIndex total, std::uint32_t parts) {
  ACCENT_EXPECTS(parts >= 1 && total >= parts);
  std::vector<PageIndex> sizes(parts, total / parts);
  for (std::uint32_t i = 0; i < total % parts; ++i) {
    ++sizes[i];
  }
  return sizes;
}

// The address-space layout: Real and RealZero regions alternate from
// kLayoutBase, listed in address order. A round with no Real region leaves
// a one-page BadMem hole so its zero region does not coalesce with the
// previous one (the region counts model process-map complexity and must be
// exact).
std::vector<WorkloadRegion> LayOut(const WorkloadSpec& spec) {
  const std::vector<PageIndex> real_sizes = SplitPages(spec.real_pages(), spec.real_regions);
  const std::vector<PageIndex> zero_sizes = SplitPages(spec.zero_pages(), spec.zero_regions);
  std::vector<WorkloadRegion> regions;
  regions.reserve(real_sizes.size() + zero_sizes.size());
  PageIndex cursor = PageOf(kLayoutBase);
  for (std::size_t i = 0; i < std::max(real_sizes.size(), zero_sizes.size()); ++i) {
    if (i < real_sizes.size()) {
      regions.push_back({cursor, real_sizes[i], /*real=*/true});
      cursor += real_sizes[i];
    } else {
      ++cursor;
    }
    if (i < zero_sizes.size()) {
      regions.push_back({cursor, zero_sizes[i], /*real=*/false});
      cursor += zero_sizes[i];
    }
  }
  return regions;
}

// Stages `image` on `env`, copying what the instance keeps. Every region is
// mapped in address order, so each map takes its append path.
WorkloadInstance Install(const WorkloadSpec& spec, HostEnv* env, const WorkloadImage& image) {
  WorkloadInstance instance;
  instance.spec = spec;

  auto space = std::make_unique<AddressSpace>(SpaceId(env->sim->AllocateId()), env->id);
  Segment* image_segment = env->segments->CreateReal(spec.real_bytes, "image:" + spec.name);
  for (PageIndex i = 0; i < image.pages.size(); ++i) {
    image_segment->StorePage(i, image.pages[i]);
  }
  ByteCount image_offset = 0;
  for (const WorkloadRegion& region : image.regions) {
    const Addr begin = PageBase(region.first);
    const Addr end = PageBase(region.first + region.pages);
    if (region.real) {
      space->MapReal(begin, end, image_segment, image_offset, /*copy_on_write=*/false);
      image_offset += end - begin;
    } else {
      space->Validate(begin, end);
    }
  }
  ACCENT_ENSURES(space->RealBytes() == spec.real_bytes);
  ACCENT_ENSURES(space->RealZeroBytes() == spec.zero_bytes);
  ACCENT_ENSURES(space->TotalValidatedBytes() == spec.total_bytes());

  for (PageIndex page : image.resident_pages) {
    env->memory->Insert(space->id(), page, /*dirty=*/false);
  }

  auto process = std::make_unique<Process>(ProcId(env->sim->AllocateId()), spec.name, env,
                                           std::move(space), /*microstate_token=*/image.seed);
  process->SetTrace(image.trace, 0);
  instance.process = std::move(process);
  instance.real_page_list = image.real_page_list;
  instance.resident_pages = image.resident_pages;
  instance.planned_touches = image.planned_touches;
  return instance;
}

}  // namespace

std::uint64_t WorkloadPageSeed(std::uint64_t pattern_seed, PageIndex page) {
  return pattern_seed * 0x9e3779b97f4a7c15ull + page * 0xda942042e4dd58b5ull + 1;
}

const std::vector<WorkloadSpec>& RepresentativeWorkloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> list;

    // Sizes are byte-exact against Tables 4-1 and 4-2. Region counts are
    // fitted so that AMap construction reproduces Table 4-4 (they model
    // process-map complexity: Lisp's sparse allocation, Pasmac's mapped
    // files). Touch counts reproduce Table 4-3's pure-IOU column; the
    // touched/resident overlaps reproduce its resident-set column.
    WorkloadSpec minprog;
    minprog.name = "Minprog";
    minprog.real_bytes = 142336;
    minprog.zero_bytes = 187904;
    minprog.resident_bytes = 71680;
    minprog.real_regions = 10;
    minprog.zero_regions = 10;
    minprog.pattern = AccessPattern::kMinimal;
    minprog.touched_real_pages = 24;   // 8.6% of RealMem
    minprog.resident_touched_overlap = 24;
    minprog.zero_touches = 3;
    minprog.compute = Ms(40);
    list.push_back(minprog);

    WorkloadSpec lisp_t;
    lisp_t.name = "Lisp-T";
    lisp_t.real_bytes = 2203136;
    lisp_t.zero_bytes = 4225926144;  // 4 GB validated at birth
    lisp_t.resident_bytes = 190464;
    lisp_t.real_regions = 385;
    lisp_t.zero_regions = 385;
    lisp_t.pattern = AccessPattern::kRandomClustered;
    lisp_t.touched_real_pages = 129;  // 3.0% of RealMem
    lisp_t.resident_touched_overlap = 129;
    lisp_t.zero_touches = 8;
    lisp_t.compute = Ms(500);
    list.push_back(lisp_t);

    WorkloadSpec lisp_del;
    lisp_del.name = "Lisp-Del";
    lisp_del.real_bytes = 2200064;
    lisp_del.zero_bytes = 4225929216;
    lisp_del.resident_bytes = 190464;
    lisp_del.real_regions = 462;
    lisp_del.zero_regions = 463;
    lisp_del.pattern = AccessPattern::kRandomClustered;
    lisp_del.touched_real_pages = 709;  // 16.5% of RealMem
    lisp_del.resident_touched_overlap = 335;
    lisp_del.zero_touches = 200;
    lisp_del.compute = Sec(40.0);
    list.push_back(lisp_del);

    WorkloadSpec pm_start;
    pm_start.name = "PM-Start";
    pm_start.real_bytes = 449024;
    pm_start.zero_bytes = 501760;
    pm_start.resident_bytes = 132096;
    pm_start.real_regions = 156;
    pm_start.zero_regions = 156;
    pm_start.pattern = AccessPattern::kSequentialScan;
    pm_start.touched_real_pages = 509;  // 58.0% of RealMem
    pm_start.resident_touched_overlap = 100;
    pm_start.zero_touches = 220;
    pm_start.compute = Sec(8.0);
    list.push_back(pm_start);

    WorkloadSpec pm_mid;
    pm_mid.name = "PM-Mid";
    pm_mid.real_bytes = 446464;
    pm_mid.zero_bytes = 466432;
    pm_mid.resident_bytes = 190976;
    pm_mid.real_regions = 163;
    pm_mid.zero_regions = 164;
    pm_mid.pattern = AccessPattern::kSequentialScan;
    pm_mid.touched_real_pages = 449;  // 51.5% of RealMem
    pm_mid.resident_touched_overlap = 168;
    pm_mid.zero_touches = 200;
    pm_mid.compute = Sec(7.0);
    list.push_back(pm_mid);

    WorkloadSpec pm_end;
    pm_end.name = "PM-End";
    pm_end.real_bytes = 492032;
    pm_end.zero_bytes = 398848;
    pm_end.resident_bytes = 302080;
    pm_end.real_regions = 259;
    pm_end.zero_regions = 260;
    pm_end.pattern = AccessPattern::kSequentialScan;
    pm_end.touched_real_pages = 258;  // 26.9% of RealMem
    pm_end.resident_touched_overlap = 152;
    pm_end.zero_touches = 80;
    pm_end.compute = Sec(3.0);
    list.push_back(pm_end);

    WorkloadSpec chess;
    chess.name = "Chess";
    chess.real_bytes = 195584;
    chess.zero_bytes = 305152;
    chess.resident_bytes = 110080;
    chess.real_regions = 10;
    chess.zero_regions = 10;
    chess.pattern = AccessPattern::kComputeBound;
    chess.touched_real_pages = 136;  // 35.6% of RealMem
    chess.resident_touched_overlap = 99;
    chess.zero_touches = 60;
    chess.compute = Sec(480.0);
    list.push_back(chess);

    return list;
  }();
  return specs;
}

const WorkloadSpec& WorkloadByName(const std::string& name) {
  for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
    if (spec.name == name) {
      return spec;
    }
  }
  ACCENT_CHECK(false) << " unknown workload " << name;
  static WorkloadSpec unreachable;
  return unreachable;
}

WorkloadImage BuildWorkloadImage(const WorkloadSpec& spec, std::uint64_t seed) {
  ACCENT_EXPECTS(spec.real_pages() >= spec.touched_real_pages);
  ACCENT_EXPECTS(spec.resident_pages() >= spec.resident_touched_overlap);
  ACCENT_EXPECTS(spec.touched_real_pages >= spec.resident_touched_overlap);
  WorkloadImage image;
  image.workload = spec.name;
  image.seed = seed;
  image.regions = LayOut(spec);

  // --- the RealMem pages and their contents, and a sample of zero pages ---
  image.pages.reserve(spec.real_pages());
  image.real_page_list.reserve(spec.real_pages());
  std::vector<PageIndex> zero_front_pages;  // sample of zero pages for traces
  for (const WorkloadRegion& region : image.regions) {
    if (region.real) {
      for (PageIndex page = region.first; page < region.first + region.pages; ++page) {
        image.real_page_list.push_back(page);
        image.pages.push_back(PageRef::Pattern(WorkloadPageSeed(seed, page)));
      }
      continue;
    }
    for (PageIndex p = 0; p < region.pages && zero_front_pages.size() < spec.zero_touches + 64;
         ++p) {
      zero_front_pages.push_back(region.first + p);
    }
  }

  // --- synthesise the post-migration trace --------------------------------
  const Rng rng(seed ^ 0xacce27f0acce27f0ull);
  Rng trace_rng = rng.Fork(1);
  TracePlan plan = GenerateTrace(spec, image.real_page_list, zero_front_pages, seed, &trace_rng);

  // --- plan the resident set (Table 4-2) ----------------------------------
  // Overlap pages come from the touched plan; for sequential scans the
  // *earliest* touched pages are the ones still resident (the scan resumes
  // where it stopped). The remainder are untouched pages — for Pasmac, the
  // already-processed prefix (the disk-cache pollution the paper blames).
  std::vector<PageIndex> overlap;
  if (spec.pattern == AccessPattern::kSequentialScan ||
      spec.pattern == AccessPattern::kMinimal) {
    overlap.assign(plan.touch_order.begin(),
                   plan.touch_order.begin() + spec.resident_touched_overlap);
  } else {
    std::vector<PageIndex> pool(plan.touch_order.begin(), plan.touch_order.end());
    Rng pick = rng.Fork(2);
    pick.Shuffle(pool);
    overlap.assign(pool.begin(), pool.begin() + spec.resident_touched_overlap);
  }

  // Both lists ascend, so one merge finds the untouched pages.
  std::vector<PageIndex> untouched;
  untouched.reserve(image.real_page_list.size() - plan.touched_real.size());
  std::set_difference(image.real_page_list.begin(), image.real_page_list.end(),
                      plan.touched_real.begin(), plan.touched_real.end(),
                      std::back_inserter(untouched));
  const std::uint64_t filler_count = spec.resident_pages() - spec.resident_touched_overlap;
  ACCENT_CHECK(untouched.size() >= filler_count)
      << " workload " << spec.name << " cannot build its resident set";
  // A sequential scan's filler is its processed prefix; the others draw it.
  if (spec.pattern != AccessPattern::kSequentialScan) {
    Rng pick = rng.Fork(3);
    pick.Shuffle(untouched);
  }

  image.resident_pages = std::move(overlap);
  image.resident_pages.insert(image.resident_pages.end(), untouched.begin(),
                              untouched.begin() + filler_count);
  std::sort(image.resident_pages.begin(), image.resident_pages.end());
  image.trace = std::move(plan.trace);
  image.planned_touches = std::move(plan.touched_real);
  return image;
}

WorkloadInstance BuildWorkload(const WorkloadSpec& spec, HostEnv* env, std::uint64_t seed,
                               const WorkloadImage* image) {
  ACCENT_EXPECTS(env != nullptr && env->complete());
  if (image == nullptr) {
    return Install(spec, env, BuildWorkloadImage(spec, seed));
  }
  ACCENT_CHECK(image->workload == spec.name && image->seed == seed)
      << " staging " << spec.name << " seed " << seed << " from the image of "
      << image->workload << " seed " << image->seed;
  ACCENT_CHECK_EQ(image->pages.size(), spec.real_pages());
  return Install(spec, env, *image);
}

}  // namespace accent
