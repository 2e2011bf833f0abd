#include "perfbench/yardstick.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "perfbench/report.h"

namespace perfbench {

namespace {

constexpr std::size_t kPageBytes = 512;
constexpr std::uint32_t kPages = 2048;            // page table entries (1 MB)
constexpr std::size_t kLiveEvents = 4096;         // heap size held steady
constexpr int kEvents = 70000;                    // events dispatched per pass
constexpr std::uint32_t kChaseSlots = 1u << 16;   // dependent-load ring (256 KB)
constexpr int kChaseSteps = 6;                    // dependent loads per chase event

using Page = std::array<std::uint64_t, kPageBytes / sizeof(std::uint64_t)>;

struct Event {
  std::uint64_t time;
  std::uint64_t seq;
  std::uint32_t page;
  std::uint32_t kind;  // 0 touch, 1 remap, 2 chase
};

struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
};

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

// One pass: a discrete-event loop over a binary heap whose handlers copy
// and hash 512-byte pages, map and unmap them, or follow a chain of
// dependent loads through a 256 KB ring. Its memory is allocated once and
// reused by every pass, so a pass never calls the allocator and its speed
// does not depend on the heap the measured work leaves behind.
class EventLoop {
 public:
  EventLoop() : pages_(kPages), mapped_(kPages), chase_(kChaseSlots) {
    heap_.reserve(kLiveEvents + 1);
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < kChaseSlots; ++i) {
      chase_[i] = i;
    }
    std::uint64_t state = 0x243f6a8885a308d3ull;
    for (std::uint32_t i = kChaseSlots - 1; i > 0; --i) {
      state = Mix(state + i);
      std::swap(chase_[i], chase_[state % i]);
    }
  }

  std::uint64_t Run() {
    heap_.clear();
    now_ = 0;
    seq_ = 0;
    rng_ = 0x9e3779b97f4a7c15ull;
    cursor_ = 0;
    checksum_ = 0;
    for (std::uint32_t p = 0; p < kPages; ++p) {
      mapped_[p] = p % 2 == 0;
      Fill(p);
    }
    for (std::size_t i = 0; i < kLiveEvents; ++i) {
      Schedule(Next() % 1000);
    }
    for (int dispatched = 0; dispatched < kEvents; ++dispatched) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Event event = heap_.back();
      heap_.pop_back();
      now_ = event.time;
      switch (event.kind) {
        case 0:
          Touch(event);
          break;
        case 1:
          Remap(event);
          break;
        default:
          Chase();
      }
      Schedule(1 + Next() % 1000);
    }
    return checksum_ ^ Mix(now_) ^ Mix(cursor_);
  }

 private:
  std::uint64_t Next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  void Fill(std::uint32_t p) {
    for (std::size_t w = 0; w < pages_[p].size(); ++w) {
      pages_[p][w] = Mix(p * 131 + w);
    }
  }

  void Schedule(std::uint64_t delay) {
    const std::uint64_t draw = Next();
    heap_.push_back(Event{now_ + delay, seq_++, static_cast<std::uint32_t>(draw % kPages),
                          static_cast<std::uint32_t>((draw >> 32) % 3)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Copies a mapped page out, hashes and modifies the copy, writes it back.
  void Touch(const Event& event) {
    if (!mapped_[event.page]) {
      return;
    }
    std::memcpy(scratch_.data(), pages_[event.page].data(), kPageBytes);
    std::uint64_t hash = event.seq;
    for (std::uint64_t& word : scratch_) {
      hash = (hash ^ word) * 0x100000001b3ull;
      word += hash;
    }
    std::memcpy(pages_[event.page].data(), scratch_.data(), kPageBytes);
    checksum_ += Mix(hash);
  }

  // Unmaps a mapped page, or maps an unmapped one with fresh contents.
  void Remap(const Event& event) {
    mapped_[event.page] = !mapped_[event.page];
    if (mapped_[event.page]) {
      Fill(event.page);
    }
  }

  void Chase() {
    for (int step = 0; step < kChaseSteps; ++step) {
      cursor_ = chase_[cursor_];
    }
    checksum_ += cursor_;
  }

  std::vector<Event> heap_;
  std::vector<Page> pages_;
  std::vector<bool> mapped_;
  std::vector<std::uint32_t> chase_;
  Page scratch_{};
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t rng_ = 0;
  std::uint32_t cursor_ = 0;
  std::uint64_t checksum_ = 0;
};

}  // namespace

YardstickPass RunYardstick() {
  static EventLoop loop;  // built once, before the first timed pass
  YardstickPass pass;
  const auto start = Clock::now();
  pass.checksum = loop.Run();
  pass.seconds = SecondsSince(start);
  return pass;
}

HostSpeed::HostSpeed() { Read(); }

double HostSpeed::ScaleSinceLastReading() {
  const double before = reading_s_.back();
  Read();
  return kYardstickBaselineS / ((before + reading_s_.back()) / 2.0);
}

void HostSpeed::Read() {
  double fastest = 0.0;
  for (int k = 0; k < kPassesPerReading; ++k) {
    const YardstickPass pass = RunYardstick();
    if (pass.checksum != kYardstickChecksum) {
      std::fprintf(stderr, "yardstick: checksum 0x%016llx != 0x%016llx\n",
                   static_cast<unsigned long long>(pass.checksum),
                   static_cast<unsigned long long>(kYardstickChecksum));
      ok_ = false;
    }
    fastest = k == 0 ? pass.seconds : std::min(fastest, pass.seconds);
  }
  reading_s_.push_back(fastest);
}

}  // namespace perfbench
