// FNV-1a digests for pinning whole reports in one constant: the golden
// 77-trial grid (tests/golden_sweep_test.cc), the failure, chain, pre-copy
// and fuzz reports, and six fleet trials (tests/cluster_test.cc).
#ifndef TESTS_DIGEST_H_
#define TESTS_DIGEST_H_

#include <cstdint>
#include <string>

namespace accent {

constexpr std::uint64_t kFnv1aOffsetBasis = 1469598103934665603ull;

// Folds `text` into a running 64-bit FNV-1a `hash`.
inline std::uint64_t Fnv1a(std::uint64_t hash, const std::string& text) {
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::uint64_t Fnv1aDigest(const std::string& text) {
  return Fnv1a(kFnv1aOffsetBasis, text);
}

}  // namespace accent

#endif  // TESTS_DIGEST_H_
