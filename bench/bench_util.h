// Shared helpers for the bench binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/experiments/sweep.h"
#include "src/experiments/trial.h"
#include "src/metrics/table.h"

namespace accent {

inline const std::vector<std::string>& RepresentativeNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> list;
    for (const WorkloadSpec& spec : RepresentativeWorkloads()) {
      list.push_back(spec.name);
    }
    return list;
  }();
  return names;
}

inline void PrintHeading(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("\n");
}

}  // namespace accent

#endif  // BENCH_BENCH_UTIL_H_
