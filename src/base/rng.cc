#include "src/base/rng.h"

namespace accent {
namespace {

constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t SplitMix64(std::uint64_t x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  // The SplitMix64 generator: successive finalisers of seed + k * gamma.
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(s);
    s += kGoldenGamma;
  }
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  ACCENT_EXPECTS(bound > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % bound);
  std::uint64_t v;
  do {
    v = Next();
  } while (v > limit);
  return v % bound;
}

std::uint64_t Rng::NextInRange(std::uint64_t lo, std::uint64_t hi) {
  ACCENT_EXPECTS(lo <= hi);
  return lo + NextBelow(hi - lo + 1);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

Rng Rng::Fork(std::uint64_t label) const {
  return Rng(seed_ ^ (label * kGoldenGamma + 0x853c49e6748fea9bull));
}

}  // namespace accent
