#include "src/base/thread_pool.h"

#include <atomic>
#include <thread>
#include <vector>

#include "src/base/check.h"

namespace accent {

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int threads, std::size_t count,
                 const std::function<void(std::size_t)>& fn) {
  ACCENT_EXPECTS(fn != nullptr);
  if (count == 0) {
    return;
  }
  if (threads > static_cast<int>(count)) {
    threads = static_cast<int>(count);
  }
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }

  // Every thread pulls indices from a shared atomic cursor, so an expensive
  // item never serialises the cheap ones behind it (the trial grid mixes
  // ~ms Minprog runs with ~100x costlier Lisp pure-copy runs).
  std::atomic<std::size_t> next{0};
  auto drain = [&next, count, &fn] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      fn(i);
    }
  };
  // jthreads join on destruction, so on every path the helpers finish
  // before `next` and `drain` go out of scope.
  std::vector<std::jthread> helpers;
  helpers.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    helpers.emplace_back(drain);
  }
  drain();
}

}  // namespace accent
