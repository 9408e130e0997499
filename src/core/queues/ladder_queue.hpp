// Ladder queue (Tang, Goh, Thng, ACM TOMACS 2005) — an amortized-O(1)
// pending event set that, unlike the calendar queue, does not depend on a
// well-tuned bucket width: buckets are created lazily ("rungs" of a ladder)
// only for the time range currently being dequeued, which makes it robust
// to skewed timestamp distributions.
//
// Structure:
//   Top    — unsorted spill area for far-future events (O(1) append);
//   Ladder — rungs of progressively finer buckets, created on demand when
//            Top or an oversized bucket is split;
//   Bottom — a small sorted vector from which events are actually dequeued.
//
// This implementation follows the paper's algorithm with the standard
// simplifications: a bucket whose events are all simultaneous (or the
// maximum rung depth) is sorted straight into Bottom instead of spawning
// another rung.
//
// Storage is recycled, so pushes and pops rarely allocate: Bottom is
// filled by taking over the drained bucket's buffer, records and all, so no
// record moves on the way (Bottom's own empty buffer is released like a
// drained bucket's); each rung depth keeps its array of bucket headers for
// the next rung spawned there; and a drained bucket hands its buffer to a
// spare list from which an empty bucket takes one on its first record.
// Only small buffers are kept (kSpareCapacity records): a large one handed
// to a bucket that receives a record or two spreads the buckets over more
// memory, which measured slower on a hold model with 1e4 pending events.
// The list holds at most kSpareRecords records of capacity.
// Top is not recycled: its buffer goes with the records into each new rung
// (keeping it measured no faster and raised the peak RSS of a 1e6-pending
// hold model by 20 MB).
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/event_queue.hpp"

namespace lsds::core {

class LadderQueue final : public EventQueue {
 public:
  LadderQueue();

  void push(EventRecord&& ev) override;
  EventRecord pop() override;
  /// Bottom's first record, else the minimum of the innermost non-empty
  /// rung's next non-empty bucket, else Top's minimum — the time the next
  /// pop() returns, without scanning the whole set.
  SimTime min_time() const override;
  std::size_t size() const override { return size_; }
  const char* name() const override { return "ladder-queue"; }

 private:
  using Bucket = std::vector<EventRecord>;  // a rung bucket is unsorted

  struct Rung {
    double start = 0;          // time of bucket 0's left edge
    double width = 0;          // bucket width
    std::size_t cur = 0;       // next bucket index to drain
    std::size_t nbuckets = 0;  // buckets in use; any beyond are empty
    std::size_t count = 0;     // events in this rung
    std::vector<Bucket> buckets;

    std::size_t bucket_of(SimTime t) const;
  };

  static constexpr std::size_t kBottomThreshold = 50;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kSpareCapacity = 8;      // records per kept buffer
  static constexpr std::size_t kSpareRecords = 1 << 15;  // records over all kept buffers

  void transfer_top_to_ladder();
  /// Move the records of `events` into a new rung appended to the ladder.
  void spawn_rung(std::vector<EventRecord>& events, double start, double end);
  /// Drain the next non-empty bucket of the innermost rung into Bottom
  /// (or a finer rung). Returns false when the ladder is empty.
  bool advance_ladder();
  /// Append to a rung bucket, giving an empty one a spare buffer.
  void bucket_push(Bucket& b, EventRecord&& ev);
  /// Empty `b`, moving its buffer to the spare list or freeing it.
  void release(Bucket& b);
  void insert_into_bottom(EventRecord&& ev);
  bool bottom_empty() const { return bottom_head_ == bottom_.size(); }

  std::vector<EventRecord> top_;  // unsorted
  double top_min_ = kInfTime;
  double top_max_ = -kInfTime;
  double top_start_ = 0;  // events with time >= top_start_ go to Top

  // rungs_[0, depth_) is the ladder, outermost first; a rung past depth_
  // is retired and all its buckets are empty.
  std::array<Rung, kMaxRungs> rungs_;
  std::size_t depth_ = 0;
  std::vector<Bucket> spare_;  // empty buffers with capacity
  std::size_t spare_records_ = 0;  // their total capacity

  // Bottom is bottom_[bottom_head_, end), sorted ascending; the slots before
  // bottom_head_ were popped. An insert shifts the shorter side of its
  // position, so a new minimum (into a popped slot) or a new maximum (an
  // append) costs O(1) even when Bottom holds a large simultaneous bucket.
  std::vector<EventRecord> bottom_;
  std::size_t bottom_head_ = 0;

  std::size_t size_ = 0;
};

}  // namespace lsds::core
