// Deterministic pseudo-random number generation.
//
// Every stochastic choice in the simulator (trace generation, page contents)
// flows through an Rng seeded from the trial configuration, so trials are
// reproducible bit-for-bit. The generator is xoshiro256** seeded via
// SplitMix64 — fast, high quality, and trivially portable.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstdint>
#include <vector>

#include "src/base/check.h"

namespace accent {

// The SplitMix64 finaliser of x + 0x9e3779b97f4a7c15: a bijective 64-bit
// mix, for deriving well-spread seeds from structured ones.
std::uint64_t SplitMix64(std::uint64_t x);

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform over [0, 2^64).
  std::uint64_t Next();

  // Uniform over [0, bound). Precondition: bound > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform over [lo, hi]. Precondition: lo <= hi.
  std::uint64_t NextInRange(std::uint64_t lo, std::uint64_t hi);

  // Uniform real in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

  // Derives an independent child generator; stable given the same label.
  Rng Fork(std::uint64_t label) const;

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;
};

}  // namespace accent

#endif  // SRC_BASE_RNG_H_
