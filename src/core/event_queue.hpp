// The pending event set, as a pluggable strategy.
//
// The paper's engine-implementation axis singles out the event-list queuing
// structure as the dominant performance factor: "A system using an O(1)
// structure for the event list will behave better than another one using an
// O(log n) queuing structure", while noting that "they all tend to behave
// different depending on various parameters". To let one engine test that
// claim, the pending set is an abstract interface with five implementations:
//
//   kSortedList     O(n) insert, O(1) pop — the naive baseline
//   kBinaryHeap     O(log n) insert/pop — the textbook default
//   kSplayTree      amortized O(log n), fast on access locality
//   kCalendarQueue  amortized O(1) (Brown 1988)
//   kLadderQueue    amortized O(1) (Tang et al. 2005), robust to skew
//
// Cancellation removes the record at once (erase) where the structure can
// find it by key: one bucket scan in the calendar queue and the ladder's
// rungs, a binary search in the ladder's Bottom vector, a descent in the
// splay tree, a tail scan in the sorted list.
//
// bench_event_queues (experiment E1) compares them under the classic
// hold model and under skewed increment distributions.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/event.hpp"

namespace lsds::core {

class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Insert an event. `seq` values must be unique.
  virtual void push(EventRecord ev) = 0;

  /// Remove and return the minimum event. Precondition: !empty().
  virtual EventRecord pop() = 0;

  /// Remove the pending event with this key if the structure can do so in
  /// place; returns true when it did. A false return leaves the set as it
  /// was: no pending event has the key, or — where erase_is_exact() is
  /// false — the structure keeps the record and pop() still returns it.
  virtual bool erase(EventKey key) = 0;

  /// True when erase() removes every pending key, so false means absent.
  /// The binary heap (no position index) and the ladder queue (unsorted
  /// Top) are not exact.
  virtual bool erase_is_exact() const { return true; }

  /// Timestamp of the minimum event, or kInfTime when empty.
  virtual SimTime min_time() const = 0;

  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Implementation name for reports.
  virtual const char* name() const = 0;
};

enum class QueueKind {
  kSortedList,
  kBinaryHeap,
  kSplayTree,
  kCalendarQueue,
  kLadderQueue,
};

const char* to_string(QueueKind kind);

/// Factory. Every implementation is a drop-in replacement for the others.
std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

/// All kinds, for parameterized tests and benches.
inline constexpr QueueKind kAllQueueKinds[] = {
    QueueKind::kSortedList,  QueueKind::kBinaryHeap,   QueueKind::kSplayTree,
    QueueKind::kCalendarQueue, QueueKind::kLadderQueue,
};

}  // namespace lsds::core
