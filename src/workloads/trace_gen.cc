#include "src/workloads/trace_gen.h"

#include <algorithm>

namespace accent {
namespace {

// Picks which real pages a trace touches, in touch order.
std::vector<PageIndex> PlanTouches(const WorkloadSpec& spec,
                                   const std::vector<PageIndex>& real_pages, Rng* rng) {
  const std::uint64_t want = spec.touched_real_pages;
  ACCENT_EXPECTS(want <= real_pages.size())
      << " workload " << spec.name << " touches more pages than exist";
  std::vector<PageIndex> order;
  order.reserve(want);

  switch (spec.pattern) {
    case AccessPattern::kMinimal: {
      // The working set sits at the front of the image.
      order.assign(real_pages.begin(), real_pages.begin() + want);
      return order;
    }
    case AccessPattern::kComputeBound: {
      // Scattered uniform sample, touched in ascending order.
      std::vector<PageIndex> pool = real_pages;
      rng->Shuffle(pool);
      order.assign(pool.begin(), pool.begin() + want);
      std::sort(order.begin(), order.end());
      return order;
    }
    case AccessPattern::kRandomClustered: {
      // Clusters of 1-3 consecutive list positions, visited in shuffled
      // order: adjacency without temporal locality. Cluster size averages
      // ~1.7 pages, which yields the paper's ~40% single-page prefetch hit
      // rate for the Lisp family.
      std::vector<bool> used(real_pages.size(), false);
      struct Cluster {
        std::size_t start = 0;  // list position of its first page
        std::size_t length = 0;
      };
      std::vector<Cluster> clusters;
      std::uint64_t picked = 0;
      while (picked < want) {
        const std::size_t start = rng->NextBelow(real_pages.size());
        if (used[start]) {
          continue;
        }
        const std::uint64_t len = std::min<std::uint64_t>(1 + rng->NextBelow(3), want - picked);
        Cluster cluster{start, 0};
        while (cluster.length < len && start + cluster.length < real_pages.size() &&
               !used[start + cluster.length]) {
          used[start + cluster.length] = true;
          ++cluster.length;
        }
        picked += cluster.length;
        clusters.push_back(cluster);
      }
      rng->Shuffle(clusters);
      for (const Cluster& cluster : clusters) {
        order.insert(order.end(), real_pages.begin() + cluster.start,
                     real_pages.begin() + cluster.start + cluster.length);
      }
      return order;
    }
    case AccessPattern::kSequentialScan: {
      // The unprocessed tail of the mapped files is scanned in ascending
      // order; within it, `scan_density` of the pages are touched (macro
      // references skip around a little). The prefix before the active
      // range is the already-processed portion — never touched again, but
      // still resident (physical memory as disk cache, section 4.2.3).
      const auto candidates =
          std::min<std::uint64_t>(real_pages.size(),
                                  static_cast<std::uint64_t>(
                                      static_cast<double>(want) / spec.scan_density + 0.5));
      ACCENT_CHECK(candidates >= want);
      const std::size_t first = real_pages.size() - candidates;
      // Choose which candidates are skipped.
      std::vector<std::size_t> idx(candidates);
      for (std::size_t i = 0; i < candidates; ++i) {
        idx[i] = i;
      }
      rng->Shuffle(idx);
      std::vector<bool> chosen(candidates, false);
      for (std::size_t i = 0; i < want; ++i) {
        chosen[idx[i]] = true;
      }
      for (std::size_t i = 0; i < candidates; ++i) {
        if (chosen[i]) {
          order.push_back(real_pages[first + i]);
        }
      }
      return order;
    }
  }
  ACCENT_CHECK(false);
  return order;
}

}  // namespace

Addr TouchAddrFor(PageIndex page) { return PageBase(page) + (page * 7) % kPageSize; }

std::uint8_t WriteValueFor(std::uint64_t pattern_seed, PageIndex page) {
  return static_cast<std::uint8_t>(
      0x5a ^ ((pattern_seed >> 8) & 0xff) ^ ((page * 0x9e3779b97f4a7c15ull) >> 56));
}

bool TouchIsWrite(std::size_t touch_index) { return touch_index % 4 == 3; }

TracePlan GenerateTrace(const WorkloadSpec& spec, const std::vector<PageIndex>& real_pages,
                        const std::vector<PageIndex>& zero_pages_sample,
                        std::uint64_t pattern_seed, Rng* rng) {
  ACCENT_EXPECTS(rng != nullptr);
  ACCENT_EXPECTS(zero_pages_sample.size() >= spec.zero_touches)
      << " not enough RealZero pages for " << spec.name;

  TracePlan plan;
  plan.touch_order = PlanTouches(spec, real_pages, rng);
  plan.touched_real.insert(plan.touch_order.begin(), plan.touch_order.end());
  ACCENT_ENSURES(plan.touched_real.size() == spec.touched_real_pages);
  plan.zero_writes.assign(zero_pages_sample.begin(),
                          zero_pages_sample.begin() + spec.zero_touches);

  // Interleave: compute is split evenly across touch gaps. Compute-bound
  // programs place their touches in the first 30% of execution.
  const std::uint64_t total_touches = plan.touch_order.size() + plan.zero_writes.size();
  const std::uint64_t slices = total_touches + 1;
  SimDuration touch_phase_compute = spec.compute;
  SimDuration tail_compute{0};
  if (spec.pattern == AccessPattern::kComputeBound) {
    touch_phase_compute = spec.compute * 3 / 10;
    tail_compute = spec.compute - touch_phase_compute;
  }
  const SimDuration slice = touch_phase_compute / static_cast<std::int64_t>(slices);

  TraceBuilder builder;
  std::size_t zero_cursor = 0;
  // Spread zero writes through the touch stream proportionally.
  const double zero_every = plan.zero_writes.empty()
                                ? 0.0
                                : static_cast<double>(plan.touch_order.size() + 1) /
                                      static_cast<double>(plan.zero_writes.size());
  double zero_next = zero_every;

  builder.Compute(slice);
  for (std::size_t i = 0; i < plan.touch_order.size(); ++i) {
    const PageIndex page = plan.touch_order[i];
    if (TouchIsWrite(i)) {
      builder.Write(TouchAddrFor(page), WriteValueFor(pattern_seed, page));
    } else {
      builder.Read(TouchAddrFor(page));
    }
    builder.Compute(slice);
    while (zero_cursor < plan.zero_writes.size() &&
           static_cast<double>(i + 1) >= zero_next) {
      const PageIndex zero_page = plan.zero_writes[zero_cursor];
      builder.Write(TouchAddrFor(zero_page), WriteValueFor(pattern_seed, zero_page));
      builder.Compute(slice);
      ++zero_cursor;
      zero_next += zero_every;
    }
  }
  while (zero_cursor < plan.zero_writes.size()) {
    const PageIndex zero_page = plan.zero_writes[zero_cursor++];
    builder.Write(TouchAddrFor(zero_page), WriteValueFor(pattern_seed, zero_page));
    builder.Compute(slice);
  }

  if (tail_compute > SimDuration::zero()) {
    // Long compute tail in bounded slices so host servers are never starved
    // behind one monolithic CPU reservation.
    const SimDuration chunk = Sec(2.0);
    SimDuration remaining = tail_compute;
    while (remaining > SimDuration::zero()) {
      const SimDuration step = std::min(chunk, remaining);
      builder.Compute(step);
      remaining -= step;
    }
  }
  builder.Terminate();
  plan.trace = builder.Build();
  return plan;
}

}  // namespace accent
