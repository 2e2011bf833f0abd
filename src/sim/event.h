// Small-buffer-optimised event callable for the simulator hot path.
//
// Every scheduled event used to carry a heap-allocated std::function. Event
// callbacks are almost always small lambdas (a couple of captured pointers
// plus a byte count), so InlineEvent stores callables of up to
// kInlineCapacity bytes directly inside the simulator's callable slab and
// only falls back to the heap for oversized or throwing-move captures.
// Move-only captures (e.g. a std::unique_ptr riding along with a message)
// are supported; copying is not, because events are consumed exactly once.
#ifndef SRC_SIM_EVENT_H_
#define SRC_SIM_EVENT_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "src/base/check.h"

namespace accent {

class InlineEvent {
 public:
  // Sized to hold the largest hot capture shape inline: Cpu::StartNext's
  // [this, done = std::function] completion wrapper (40 bytes), which
  // std::function itself would heap-allocate (its SBO tops out at 16).
  static constexpr std::size_t kInlineCapacity = 40;

  InlineEvent() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineEvent(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(fn)));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  InlineEvent(InlineEvent&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(other);
    }
  }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(other);
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    ACCENT_EXPECTS(ops_ != nullptr) << " invoking an empty InlineEvent";
    ops_->invoke(storage_);
  }

 private:
  // Null relocate/destroy entries mark trivial operations, letting the move
  // path stay a branch plus a fixed-size memcpy instead of an indirect call.
  // Inside the simulator every event's callable moves twice, into its slot
  // and out of it to run, and almost every capture takes the memcpy path.
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs *dst from *src and destroys *src; null when a raw
    // storage memcpy is equivalent (trivially copyable + destructible
    // capture, or the heap case where storage holds only a pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static constexpr bool kTrivialRelocate =
        std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;
    static void Invoke(void* self) { (*static_cast<D*>(self))(); }
    static void Relocate(void* dst, void* src) noexcept {
      D* from = static_cast<D*>(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void Destroy(void* self) noexcept { static_cast<D*>(self)->~D(); }
    static constexpr Ops kOps{&Invoke, kTrivialRelocate ? nullptr : &Relocate,
                              std::is_trivially_destructible_v<D> ? nullptr : &Destroy};
  };

  template <typename D>
  struct HeapOps {
    static void Invoke(void* self) { (**static_cast<D**>(self))(); }
    static void Destroy(void* self) noexcept { delete *static_cast<D**>(self); }
    // Relocation only moves the owning pointer: memcpy-able.
    static constexpr Ops kOps{&Invoke, nullptr, &Destroy};
  };

  void Relocate(InlineEvent& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineCapacity);
    }
    other.ops_ = nullptr;
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity]{};
  const Ops* ops_ = nullptr;
};

}  // namespace accent

#endif  // SRC_SIM_EVENT_H_
