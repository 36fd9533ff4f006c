#pragma once
// Fixed-capacity FIFO of flits over external storage: the input-VC buffer.
//
// The network keeps every input VC's flit slots in one flat array
// (`buffer_depth` consecutive slots per VC) and each VC's head/count cursor
// in its 8-byte InputVc record, so the buffers are two dense arrays that
// need no per-VC allocation.  FlitRing binds one cursor to its slots for
// the duration of an operation; it owns nothing (see docs/performance.md,
// "Flat VC state and credit-gated requests").
//
// Buffered flits reference their message by *slot* (Flit::msg): a slot is
// recycled only after the tail flit has left every ring in the network
// (retirement happens at ejection), so a flit sitting here always refers
// to the live message occupying that slot.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "ftmesh/router/flit.hpp"

namespace ftmesh::router {

/// Ring position of one buffer: index of the front slot and occupancy.
struct RingCursor {
  std::uint16_t head = 0;
  std::uint16_t count = 0;
};

/// A view of one ring: `cap` slots starting at `slots`, addressed through
/// `cur`.  BasicFlitRing<true> mutates; BasicFlitRing<false> only reads.
template <bool kMutable>
class BasicFlitRing {
  using Cursor = std::conditional_t<kMutable, RingCursor, const RingCursor>;
  using Slot = std::conditional_t<kMutable, Flit, const Flit>;

 public:
  BasicFlitRing(Cursor& cur, Slot* slots, std::uint16_t cap) noexcept
      : cur_(&cur), slots_(slots), cap_(cap) {
    assert(cap >= 1);
  }

  [[nodiscard]] bool empty() const noexcept { return cur_->count == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return cur_->count; }
  [[nodiscard]] int capacity() const noexcept { return cap_; }

  [[nodiscard]] const Flit& front() const noexcept {
    assert(cur_->count > 0);
    return slots_[cur_->head];
  }

  /// i-th flit from the front (0 == front()).
  [[nodiscard]] const Flit& operator[](std::size_t i) const noexcept {
    assert(i < cur_->count);
    return slots_[wrap(cur_->head + static_cast<std::uint32_t>(i))];
  }

  void push_back(const Flit& f) const noexcept
    requires kMutable
  {
    assert(cur_->count < cap_ &&
           "input VC over capacity: credit protocol violated");
    slots_[wrap(std::uint32_t{cur_->head} + cur_->count)] = f;
    ++cur_->count;
  }

  void pop_front() const noexcept
    requires kMutable
  {
    assert(cur_->count > 0);
    cur_->head = wrap(std::uint32_t{cur_->head} + 1);
    --cur_->count;
  }

  /// Removes every flit matching `pred`, preserving the order of survivors.
  /// Returns the number removed.  Used only by the (rare) fault-recovery
  /// purge, so a simple in-place compaction is fine.
  template <typename Pred>
  std::size_t remove_if(Pred pred) const
    requires kMutable
  {
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < cur_->count; ++i) {
      const Flit f = slots_[wrap(cur_->head + i)];
      if (pred(f)) continue;
      slots_[wrap(cur_->head + kept)] = f;
      ++kept;
    }
    const std::size_t removed = cur_->count - kept;
    cur_->count = static_cast<std::uint16_t>(kept);
    return removed;
  }

  class const_iterator {
   public:
    const_iterator(const BasicFlitRing* ring, std::size_t i) noexcept
        : ring_(ring), i_(i) {}
    const Flit& operator*() const noexcept { return (*ring_)[i_]; }
    const Flit* operator->() const noexcept { return &(*ring_)[i_]; }
    const_iterator& operator++() noexcept {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.i_ == b.i_;
    }

   private:
    const BasicFlitRing* ring_;
    std::size_t i_;
  };

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept {
    return {this, cur_->count};
  }

 private:
  /// Maps a logical position in [0, 2 * cap) onto a slot index.
  [[nodiscard]] std::uint16_t wrap(std::uint32_t i) const noexcept {
    return static_cast<std::uint16_t>(i >= cap_ ? i - cap_ : i);
  }

  Cursor* cur_;
  Slot* slots_;
  std::uint16_t cap_;
};

using FlitRing = BasicFlitRing<true>;
using ConstFlitRing = BasicFlitRing<false>;

}  // namespace ftmesh::router
