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
//
// SeqBits, below, marks sequence numbers with one bit each, for sets too
// large to keep as table entries.
#pragma once

#include <algorithm>
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

/// Event ids marked with their key's time, one bit per id in 64-id words.
/// The engine marks the keys reserve_key hands out and never pushes,
/// released ones included: a flow solver releases them by the hundred
/// thousand, with times far ahead, and a table entry each would cost more
/// than the run's whole pending set. Ids are inserted in increasing order.
/// A word whose bits are all clear, or whose latest time the clock has
/// passed, answers nothing a caller cannot answer from the key's time: the
/// words before the first one still needed are dropped, in batches, when
/// an insert opens a new word.
class SeqBits {
 public:
  bool contains(EventId id) const {
    const EventId w = (id >> 6) - first_;  // wraps past size() below first_
    return w < words_.size() && ((words_[w].bits >> (id & 63)) & 1) != 0;
  }

  /// Mark `id`, larger than every id inserted before, with `time`.
  void insert(EventId id, SimTime time, SimTime now) {
    EventId w = (id >> 6) - first_;
    if (w >= words_.size()) {
      drop_passed(now);
      if (words_.empty()) first_ = id >> 6;
      w = (id >> 6) - first_;
      words_.resize(w + 1);
    }
    words_[w].bits |= std::uint64_t{1} << (id & 63);
    words_[w].latest = std::max(words_[w].latest, time);
  }

  void erase(EventId id) {
    const EventId w = (id >> 6) - first_;
    if (w < words_.size()) words_[w].bits &= ~(std::uint64_t{1} << (id & 63));
  }

 private:
  struct Word {
    std::uint64_t bits = 0;
    SimTime latest = -kInfTime;  // latest time marked in the word
  };

  void drop_passed(SimTime now) {
    // A word once droppable stays so: no later id lands in it, and the
    // clock only advances. So the scan resumes where it stopped.
    while (droppable_ < words_.size() &&
           (words_[droppable_].bits == 0 || words_[droppable_].latest < now)) {
      ++droppable_;
    }
    // Erase only a front at least half the words long, so the shifts cost
    // O(1) per dropped word.
    if (droppable_ == 0 || 2 * droppable_ < words_.size()) return;
    words_.erase(words_.begin(), words_.begin() + static_cast<std::ptrdiff_t>(droppable_));
    first_ += droppable_;
    droppable_ = 0;
  }

  std::vector<Word> words_;
  EventId first_ = 0;          // word number (id >> 6) of words_[0]
  std::size_t droppable_ = 0;  // words_[0, droppable_) may be dropped
};

}  // namespace lsds::core
