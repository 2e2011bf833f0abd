#include "src/base/page_data.h"

#include <bit>
#include <cstring>

#include "src/base/rng.h"

namespace accent {

// Each word's bytes are stored least significant first, one copy per word.
static_assert(std::endian::native == std::endian::little,
              "MakePatternPage copies words in little-endian byte order");

PageData MakePatternPage(std::uint64_t seed) {
  Rng rng(seed);
  PageData page(kPageSize);
  for (ByteCount i = 0; i < kPageSize; i += 8) {
    const std::uint64_t word = rng.Next() | 1;  // never all-zero
    std::memcpy(page.data() + i, &word, sizeof word);
  }
  return page;
}

std::uint64_t PageIntegrityChecksum(const PageData& page) {
  ACCENT_EXPECTS(page.empty() || page.size() == kPageSize);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (ByteCount i = 0; i < kPageSize; ++i) {
    const std::uint8_t byte = page.empty() ? 0 : page[i];
    hash = (hash ^ byte) * 0x100000001b3ull;
  }
  return hash;
}

namespace {

// fmix64 from murmur3: full avalanche over one 64-bit lane.
inline std::uint64_t Mix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

PageHash ComputePageHash(const PageData& page) {
  ACCENT_EXPECTS(page.empty() || page.size() == kPageSize);
  // Two independently-seeded murmur-style lanes over the 64-bit words of
  // the page. Each lane mixes the word with its position before folding,
  // so permuted contents (common under MakePatternPage mutations) never
  // alias; the final cross-mix couples the lanes into a 128-bit digest.
  std::uint64_t h1 = 0x9e3779b97f4a7c15ull;
  std::uint64_t h2 = 0xc2b2ae3d27d4eb4full;
  for (ByteCount i = 0; i < kPageSize; i += 8) {
    std::uint64_t word = 0;
    if (!page.empty()) {
      for (int b = 0; b < 8; ++b) {
        word |= static_cast<std::uint64_t>(page[i + b]) << (8 * b);
      }
    }
    h1 = Mix64(h1 ^ Mix64(word + i));
    h2 = Mix64(h2 + word) ^ (i * 0x100000001b3ull);
  }
  PageHash hash;
  hash.lo = Mix64(h1 ^ (h2 << 1));
  hash.hi = Mix64(h2 ^ (h1 >> 1));
  return hash;
}

const PageHash& ZeroPageHash() {
  static const PageHash zero = ComputePageHash(PageData{});
  return zero;
}

std::uint8_t PageByteAt(const PageData& page, ByteCount offset) {
  ACCENT_EXPECTS(offset < kPageSize);
  if (page.empty()) {
    return 0;
  }
  return page[offset];
}

void PageWriteByte(PageData& page, ByteCount offset, std::uint8_t value) {
  ACCENT_EXPECTS(offset < kPageSize);
  if (page.empty()) {
    if (value == 0) {
      return;
    }
    page.assign(kPageSize, 0);
  }
  page[offset] = value;
}

}  // namespace accent
