// Fork-join fan-out for independent jobs.
//
// Deliberately minimal: no work stealing, no persistent workers. Sweep jobs
// (whole migration trials) run for milliseconds, so starting threads per
// call is noise, and the determinism story stays auditable: nothing here
// reorders results — callers index output slots by job id, so the same
// inputs produce the same outputs regardless of thread count or scheduling.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace accent {

// std::thread::hardware_concurrency() clamped to >= 1.
int HardwareThreads();

// Runs fn(i) for i in [0, count) on up to `threads` threads — the caller's
// plus `threads - 1` started for the call — and returns once all iterations
// finished. Iterations must be independent. `threads` <= 1 (or count <= 1)
// degrades to a plain serial loop on the caller's thread.
void ParallelFor(int threads, std::size_t count, const std::function<void(std::size_t)>& fn);

}  // namespace accent

#endif  // SRC_BASE_THREAD_POOL_H_
