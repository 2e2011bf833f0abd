#include "src/base/page_data.h"

#include <bit>
#include <cstring>

#include "src/base/rng.h"

namespace accent {

// Each word's bytes are stored least significant first, one copy per word,
// and both digests load words the same way; PageHash values are pinned
// (tests/page_service_test.cc) to little-endian words.
static_assert(std::endian::native == std::endian::little,
              "pattern pages and page digests copy words in little-endian byte order");

PageData MakePatternPage(std::uint64_t seed) {
  Rng rng(seed);
  PageData page(kPageSize);
  for (ByteCount i = 0; i < kPageSize; i += 8) {
    const std::uint64_t word = rng.Next() | 1;  // never all-zero
    std::memcpy(page.data() + i, &word, sizeof word);
  }
  return page;
}

namespace {

// The bytes an empty PageData (the zero page) reads as.
constexpr std::uint8_t kZeroBytes[kPageSize] = {};

const std::uint8_t* BytesOf(const PageData& page) {
  ACCENT_EXPECTS(page.empty() || page.size() == kPageSize);
  return page.empty() ? kZeroBytes : page.data();
}

std::uint64_t WordAt(const std::uint8_t* bytes, ByteCount offset) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes + offset, sizeof word);
  return word;
}

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

std::uint64_t PageIntegrityChecksum(const PageData& page) {
  const std::uint8_t* bytes = BytesOf(page);
  // Word i feeds lane i % 4, so the four multiply chains overlap. A step
  // is bijective in its lane and in its word, so changing one word always
  // changes that lane's final state, and the fold is bijective in each
  // lane given the others, so the change always reaches the checksum.
  std::uint64_t lanes[4] = {0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full,
                            0x165667b19e3779f9ull, 0x27d4eb2f165667c5ull};
  for (ByteCount i = 0; i < kPageSize; i += sizeof lanes) {
    for (int lane = 0; lane < 4; ++lane) {
      const std::uint64_t h = (lanes[lane] ^ WordAt(bytes, i + 8 * lane)) * 0xff51afd7ed558ccdull;
      lanes[lane] = h ^ (h >> 29);
    }
  }
  std::uint64_t sum = Mix64(lanes[0]);
  for (int lane = 1; lane < 4; ++lane) {
    sum = Mix64(sum ^ lanes[lane]);
  }
  return sum;
}

PageHash ComputePageHash(const PageData& page) {
  const std::uint8_t* bytes = BytesOf(page);
  // Two independently-seeded murmur-style lanes over the 64-bit words of
  // the page. Each lane mixes the word with its position before folding,
  // so permuted contents (common under MakePatternPage mutations) never
  // alias; the final cross-mix couples the lanes into a 128-bit digest.
  std::uint64_t h1 = 0x9e3779b97f4a7c15ull;
  std::uint64_t h2 = 0xc2b2ae3d27d4eb4full;
  for (ByteCount i = 0; i < kPageSize; i += 8) {
    const std::uint64_t word = WordAt(bytes, i);
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
