// Flat open-addressing set of event ids, each stored with its timestamp.
//
// The engine's key bookkeeping (core/engine.hpp): the ids of cancelled
// events (their records stay queued until they surface), the reserved keys
// not pushed yet and, under a choice hook, the ids executed at the current
// instant. Linear
// probing over one power-of-two array with Fibonacci hashing — sequence
// numbers are dense, so the multiplicative hash spreads them evenly. An
// insert allocates only when the table doubles. Entries leave in bulk
// (clear, erase_before) or one by one (erase, by backward shift), so the
// probe chains need no deletion markers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/event.hpp"

namespace lsds::core {

class FlatIdSet {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(EventId id) const {
    if (size_ == 0) return false;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return true;
      if (slots_[i].id == 0) return false;
    }
  }

  /// Add `id` (never 0) stamped with `time`. Returns false if present.
  bool insert(EventId id, SimTime time) {
    if (2 * (size_ + 1) > slots_.size()) rehash(slots_.empty() ? kMinSlots : 2 * slots_.size());
    std::size_t i = home(id);
    for (; slots_[i].id != 0; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return false;
    }
    slots_[i] = {id, time};
    ++size_;
    return true;
  }

  /// Remove `id` if it is present stamped with exactly `time`. Returns
  /// whether it was. The entries after it in its probe chain shift back, so
  /// every lookup still ends at the first empty slot.
  bool erase(EventId id, SimTime time) {
    if (size_ == 0) return false;
    std::size_t i = home(id);
    for (; slots_[i].id != id; i = (i + 1) & mask_) {
      if (slots_[i].id == 0) return false;
    }
    if (slots_[i].time != time) return false;
    for (std::size_t j = (i + 1) & mask_; slots_[j].id != 0; j = (j + 1) & mask_) {
      // An entry may fill the hole only if its home is not in (i, j].
      const std::size_t h = home(slots_[j].id);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  /// Drop every entry stamped earlier than `t`.
  void erase_before(SimTime t) {
    std::vector<Slot> old;
    old.swap(slots_);
    size_ = 0;
    std::size_t kept = 0;
    for (const Slot& s : old) kept += (s.id != 0 && s.time >= t);
    std::size_t cap = kMinSlots;
    while (cap < 2 * kept) cap *= 2;
    rehash(cap);
    for (const Slot& s : old) {
      if (s.id != 0 && s.time >= t) insert(s.id, s.time);
    }
  }

 private:
  struct Slot {
    EventId id = 0;  // 0 = empty
    SimTime time = 0;
  };
  static constexpr std::size_t kMinSlots = 16;

  std::size_t home(EventId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.id != 0) insert(s.id, s.time);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace lsds::core
